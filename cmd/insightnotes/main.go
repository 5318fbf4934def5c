// Command insightnotes is the interactive front end of the engine — the
// CLI counterpart of the paper's Excel-based InsightNotesGate (Figure 5).
// It accepts the full statement grammar (SQL plus the InsightNotes
// extensions), renders query results with their annotation summaries,
// supports zoom-in, and exposes the under-the-hood per-operator trace.
//
// Usage:
//
//	insightnotes [-demo] [-script file.sql] [-connect 127.0.0.1:7090]
//
// With -demo the REPL starts pre-loaded with the annotated ornithological
// dataset used throughout the paper's demonstration. With -connect the
// REPL speaks to a running insightnotesd over TCP instead of an
// in-process engine, retrying transient connection failures with capped
// exponential backoff.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"insightnotes/internal/engine"
	"insightnotes/internal/server"
	"insightnotes/internal/workload"
	"insightnotes/internal/workload/populate"
)

func main() {
	demo := flag.Bool("demo", false, "preload the annotated ornithological demo dataset")
	script := flag.String("script", "", "execute a SQL script file before starting the REPL")
	connect := flag.String("connect", "", "address of a running insightnotesd to connect to (empty runs in-process)")
	flag.Parse()

	if *connect != "" {
		replRemote(*connect)
		return
	}

	db, err := engine.Open(engine.Config{})
	if err != nil {
		fatal(err)
	}
	if *demo {
		fmt.Println("loading ornithological demo dataset (16 birds × 30 annotations)...")
		g := workload.New(2015)
		if _, err := populate.Birds(db, g, populate.BirdCorpusSpec{
			Tuples: 16, AnnotationsPerTuple: 30, DocumentFraction: 0.05, TrainPerClass: 8,
		}); err != nil {
			fatal(err)
		}
		fmt.Println("loaded. Try: SELECT id, name FROM birds WHERE id <= 3;")
	}
	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			fatal(err)
		}
		results, err := db.ExecScript(context.Background(), string(data))
		for _, res := range results {
			printResult(os.Stdout, res)
		}
		if err != nil {
			fatal(err)
		}
	}
	repl(db)
	if err := db.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "insightnotes:", err)
	os.Exit(1)
}

// dialAttempts and dialBackoff shape the remote REPL's resilience: a
// handful of capped, jittered retries covers a server that is still
// binding or briefly restarting without hanging a dead address forever.
const dialAttempts = 6

var dialBackoff = server.Backoff{}

// replRemote is the REPL over a TCP connection to insightnotesd. A
// failed round trip (server restart, network blip) reconnects with
// backoff and retries the statement once before reporting the error.
func replRemote(addr string) {
	ctx := context.Background()
	c, err := server.DialRetry(ctx, addr, dialAttempts, dialBackoff)
	if err != nil {
		fatal(fmt.Errorf("connecting to %s: %w", addr, err))
	}
	defer func() { c.Close() }()
	fmt.Printf("connected to %s (type \\help)\n", addr)
	readStatements(func(cmd string) bool {
		if cmd == `\q` || cmd == `\quit` {
			return false
		}
		fmt.Println(`remote mode supports \quit; statements end with ';'`)
		return true
	}, func(stmt string) {
		stmt = strings.TrimSpace(stmt)
		resp, err := c.Do(ctx, stmt)
		if err != nil {
			fmt.Println("connection lost:", err, "— reconnecting...")
			c.Close()
			c, err = server.DialRetry(ctx, addr, dialAttempts, dialBackoff)
			if err != nil {
				fatal(fmt.Errorf("reconnecting to %s: %w", addr, err))
			}
			resp, err = c.Do(ctx, stmt)
		}
		if err != nil {
			fmt.Println("error:", err)
		} else {
			printResponse(os.Stdout, resp)
		}
	})
}

// readStatements is the REPL's reader, remote and embedded: a backslash
// line at the start of a statement goes to command (false ends the
// session); other lines accumulate until one contains ';' and are then
// handed to statement.
func readStatements(command func(cmd string) bool, statement func(stmt string)) {
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("insightnotes> ")
		} else {
			fmt.Print("          ... ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !command(trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.Contains(line, ";") {
			stmt := buf.String()
			buf.Reset()
			statement(stmt)
		}
		prompt()
	}
}

// table is what the REPL prints for one statement; printResponse (remote)
// and printResult (embedded) adapt to it.
type table struct {
	message   string
	headers   []string
	cells     [][]string // one slice per row, one cell per header
	summaries [][]string // per row, the "~" lines under it
	// wide: EXPLAIN and SHOW TRACE output is a single "plan"/"trace" column
	// whose lines (operator descriptions, span trees) must not be truncated.
	wide  bool
	qid   int
	stats string
}

func isPlanColumn(name string) bool { return name == "plan" || name == "trace" }

func (t table) print(w io.Writer) {
	if t.message != "" {
		fmt.Fprintln(w, t.message)
	}
	if len(t.headers) == 0 {
		return
	}
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.cells {
		for i, s := range row {
			if len(s) > 40 && !t.wide {
				s = s[:37] + "..."
				row[i] = s
			}
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	line := func(cols []string) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = c + strings.Repeat(" ", widths[i]-len(c))
		}
		fmt.Fprintln(w, "| "+strings.Join(parts, " | ")+" |")
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for r, row := range t.cells {
		line(row)
		for _, l := range t.summaries[r] {
			fmt.Fprintf(w, "    ~ %s\n", l)
		}
	}
	if t.qid != 0 {
		fmt.Fprintf(w, "(%d row(s), QID = %d)\n", len(t.cells), t.qid)
	} else {
		fmt.Fprintf(w, "(%d row(s))\n", len(t.cells))
	}
	if t.stats != "" {
		fmt.Fprintf(w, "-- %s\n", t.stats)
	}
}

// printResponse renders a wire response.
func printResponse(w io.Writer, resp *server.Response) {
	if resp.Error != "" {
		fmt.Fprintln(w, "error:", resp.Error)
		return
	}
	t := table{
		message: resp.Message, headers: resp.Columns, qid: resp.QID, stats: resp.Stats,
		wide: len(resp.Columns) == 1 && isPlanColumn(resp.Columns[0]),
	}
	for _, row := range resp.Rows {
		cells := make([]string, len(resp.Columns))
		for i := range cells {
			if i < len(row.Values) {
				cells[i] = row.Values[i].String()
			}
		}
		names := make([]string, 0, len(row.Summaries))
		for name := range row.Summaries {
			names = append(names, name)
		}
		sort.Strings(names)
		var lines []string
		for _, name := range names {
			lines = append(lines, strings.Split(row.Summaries[name], "\n")...)
		}
		t.cells = append(t.cells, cells)
		t.summaries = append(t.summaries, lines)
	}
	t.print(w)
}

// printResult renders an engine result.
func printResult(w io.Writer, res *engine.Result) {
	cols := res.Schema.Columns
	t := table{message: res.Message, qid: res.QID, wide: len(cols) == 1 && isPlanColumn(cols[0].Name)}
	for _, c := range cols {
		t.headers = append(t.headers, c.QualifiedName())
	}
	for _, row := range res.Rows {
		cells := make([]string, len(row.Tuple))
		for i, v := range row.Tuple {
			cells[i] = v.String()
		}
		var lines []string
		if row.Env != nil && !row.Env.IsEmpty() {
			lines = strings.Split(row.Env.Render(), "\n")
		}
		t.cells = append(t.cells, cells)
		t.summaries = append(t.summaries, lines)
	}
	if res.Stats != nil {
		t.stats = res.Stats.String()
	}
	t.print(w)
}

const help = `statements end with ';'. SQL: CREATE TABLE / CREATE INDEX / INSERT /
BULK INSERT (one WAL record and fsync for the whole batch) /
SELECT (joins, GROUP BY, HAVING, ORDER BY, DISTINCT, LIMIT) / DROP TABLE.
Prepared statements:
  PREPARE name AS SELECT .. WHERE id = $1;
  EXECUTE name USING 7;     EXECUTE name (7);
  DEALLOCATE name;
InsightNotes extensions:
  ADD ANNOTATION 'text' [TITLE '..'] [DOCUMENT '..'] [AUTHOR '..']
      ON table[(col, ..)] [WHERE cond];
  CREATE SUMMARY INSTANCE name TYPE Classifier|Cluster|Snippet
      [WITH (k = v, ..)] [LABELS ('a', ..)];
  TRAIN SUMMARY name ('sample', 'Label'), ..;
  LINK SUMMARY name TO table;   UNLINK SUMMARY name FROM table;
  ZOOMIN REFERENCE QID n [WHERE cond] ON instance INDEX k;
  SHOW TABLES; SHOW SUMMARIES; SHOW ANNOTATIONS ON table;
  SHOW METRICS [LIKE 'insightnotes_zoomin_%'];
REPL commands:
  \trace SELECT ...;   run a query with the per-operator summary trace
  \stats               zoom-in cache statistics
  \help                this text
  \quit                exit`

func repl(db *engine.DB) {
	fmt.Println(`InsightNotes — summary-based annotation management (type \help)`)
	readStatements(func(cmd string) bool { return replCommand(db, os.Stdout, cmd) }, func(stmt string) {
		results, err := db.ExecScript(context.Background(), stmt)
		for _, res := range results {
			printResult(os.Stdout, res)
		}
		if err != nil {
			fmt.Println("error:", err)
		}
	})
}

// replCommand handles backslash commands; it returns false to exit.
func replCommand(db *engine.DB, w io.Writer, cmd string) bool {
	switch {
	case cmd == `\q` || cmd == `\quit`:
		return false
	case cmd == `\help` || cmd == `\h`:
		fmt.Fprintln(w, help)
	case cmd == `\stats`:
		st := db.Cache().Stats()
		fmt.Fprintf(w, "zoom-in cache [%s]: %d entries, %d bytes, %d hits, %d misses, %d evictions\n",
			db.Cache().PolicyName(), st.Entries, st.UsedBytes, st.Hits, st.Misses, st.Evictions)
	case strings.HasPrefix(cmd, `\trace `):
		q := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(cmd, `\trace `)), ";")
		res, err := db.Query(context.Background(), q, engine.WithTrace())
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			break
		}
		fmt.Fprintln(w, "-- under-the-hood execution --")
		for _, e := range res.Trace {
			fmt.Fprintf(w, "[%s] %s\n", e.Stage, e.Tuple)
			if e.Summary != "" {
				for _, line := range strings.Split(e.Summary, "\n") {
					fmt.Fprintf(w, "        %s\n", line)
				}
			}
		}
		printResult(w, res)
	default:
		fmt.Fprintln(w, `unknown command (try \help)`)
	}
	return true
}
