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
	"strings"

	"insightnotes/internal/bench"
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
			if trimmed == `\q` || trimmed == `\quit` {
				return
			}
			fmt.Println(`remote mode supports \quit; statements end with ';'`)
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.Contains(line, ";") {
			stmt := strings.TrimSpace(buf.String())
			buf.Reset()
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
		}
		prompt()
	}
}

// printResponse renders a wire response in the same tabular style the
// in-process REPL uses for engine results.
func printResponse(w io.Writer, resp *server.Response) {
	if resp.Error != "" {
		fmt.Fprintln(w, "error:", resp.Error)
		return
	}
	if resp.Message != "" {
		fmt.Fprintln(w, resp.Message)
	}
	if len(resp.Columns) == 0 {
		return
	}
	widths := make([]int, len(resp.Columns))
	for i, c := range resp.Columns {
		widths[i] = len(c)
	}
	// EXPLAIN and SHOW TRACE output is a single "plan"/"trace" column whose
	// lines (operator descriptions, span trees) must not be truncated.
	planOutput := len(resp.Columns) == 1 &&
		(resp.Columns[0] == "plan" || resp.Columns[0] == "trace")
	cells := make([][]string, len(resp.Rows))
	for r, row := range resp.Rows {
		cells[r] = make([]string, len(resp.Columns))
		for i := range resp.Columns {
			s := ""
			if i < len(row.Values) {
				s = row.Values[i].String()
			}
			if len(s) > 40 && !planOutput {
				s = s[:37] + "..."
			}
			cells[r][i] = s
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
	line(resp.Columns)
	sep := make([]string, len(resp.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for r, row := range resp.Rows {
		line(cells[r])
		for _, name := range sortedKeys(row.Summaries) {
			for _, l := range strings.Split(row.Summaries[name], "\n") {
				fmt.Fprintf(w, "    ~ %s\n", l)
			}
		}
	}
	if resp.QID != 0 {
		fmt.Fprintf(w, "(%d row(s), QID = %d)\n", len(resp.Rows), resp.QID)
	} else {
		fmt.Fprintf(w, "(%d row(s))\n", len(resp.Rows))
	}
	if resp.Stats != "" {
		fmt.Fprintf(w, "-- %s\n", resp.Stats)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
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
  \bench               run the quick experiment suite
  \help                this text
  \quit                exit`

func repl(db *engine.DB) {
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Println(`InsightNotes — summary-based annotation management (type \help)`)
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
			if !replCommand(db, os.Stdout, trimmed) {
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
			results, err := db.ExecScript(context.Background(), stmt)
			for _, res := range results {
				printResult(os.Stdout, res)
			}
			if err != nil {
				fmt.Println("error:", err)
			}
		}
		prompt()
	}
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
	case cmd == `\bench`:
		if _, err := bench.RunAll(w, bench.Quick); err != nil {
			fmt.Fprintln(w, "error:", err)
		}
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

func printResult(w io.Writer, res *engine.Result) {
	if res.Message != "" {
		fmt.Fprintln(w, res.Message)
	}
	if res.Schema.Len() == 0 {
		return
	}
	// Header.
	headers := make([]string, res.Schema.Len())
	widths := make([]int, res.Schema.Len())
	for i, c := range res.Schema.Columns {
		headers[i] = c.QualifiedName()
		widths[i] = len(headers[i])
	}
	// EXPLAIN and SHOW TRACE output is a single "plan"/"trace" column whose
	// lines (operator descriptions, span trees) must not be truncated.
	planOutput := res.Schema.Len() == 1 &&
		(res.Schema.Columns[0].Name == "plan" || res.Schema.Columns[0].Name == "trace")
	cells := make([][]string, len(res.Rows))
	for r, row := range res.Rows {
		cells[r] = make([]string, len(row.Tuple))
		for i, v := range row.Tuple {
			s := v.String()
			if len(s) > 40 && !planOutput {
				s = s[:37] + "..."
			}
			cells[r][i] = s
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
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for r, row := range res.Rows {
		line(cells[r])
		if row.Env != nil && !row.Env.IsEmpty() {
			for _, l := range strings.Split(row.Env.Render(), "\n") {
				fmt.Fprintf(w, "    ~ %s\n", l)
			}
		}
	}
	if res.QID != 0 {
		fmt.Fprintf(w, "(%d row(s), QID = %d)\n", len(res.Rows), res.QID)
	} else {
		fmt.Fprintf(w, "(%d row(s))\n", len(res.Rows))
	}
	if res.Stats != nil {
		fmt.Fprintf(w, "-- %s\n", res.Stats)
	}
}
