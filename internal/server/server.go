// Package server exposes an InsightNotes engine over TCP with a
// newline-delimited JSON protocol, making the engine usable as standalone
// annotation-management middleware (the deployment style of the paper's
// prototype, which fronted a modified PostgreSQL).
//
// Protocol: the client sends one request object per line and receives one
// response object per line. Requests carry a single statement in the full
// grammar (SQL plus InsightNotes extensions); responses carry the message,
// QID, result columns, and rows with their rendered summary objects and
// zoom labels.
//
// Statements execute directly against the engine's statement-level
// reader/writer lock: reads (SELECT, SHOW, EXPLAIN, ZOOMIN) from separate
// connections run concurrently, writes are exclusive. Each statement runs
// under its own context; an optional per-statement deadline
// (Server.StatementTimeout) aborts runaway queries with a timeout error.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"insightnotes/internal/engine"
	"insightnotes/internal/failpoint"
	"insightnotes/internal/metrics"
	"insightnotes/internal/sql"
	"insightnotes/internal/storage"
	"insightnotes/internal/trace"
	"insightnotes/internal/types"
)

// Request is one client command.
//
// Kind selects the request's shape. The default (empty or "exec") executes
// Stmt as statement text; the prepared-statement kinds carry the pieces as
// structured fields so clients never have to render SQL literals:
//
//	{"kind":"prepare","name":"by_id","stmt":"SELECT * FROM t WHERE id = $1"}
//	{"kind":"execute","name":"by_id","args":[7]}
//	{"kind":"deallocate","name":"by_id"}
//
// An exec-kind request may also carry Args: the server binds them to the
// statement's $n placeholders for a one-shot parameterized execution (the
// unnamed-prepared-statement pattern).
type Request struct {
	// Stmt is the statement to execute (the template text for "prepare";
	// unused for "execute" and "deallocate").
	Stmt string `json:"stmt,omitempty"`
	// Trace requests the under-the-hood operator log for SELECTs.
	Trace bool `json:"trace,omitempty"`
	// Kind is the request kind: "" or "exec" (default), "prepare",
	// "execute", or "deallocate".
	Kind string `json:"kind,omitempty"`
	// Name is the prepared-statement name for the prepared kinds.
	Name string `json:"name,omitempty"`
	// Args are positional parameter values: $1 is Args[0]. Used by
	// "execute" and by parameterized "exec" requests.
	Args []types.Value `json:"args,omitempty"`
}

// Response is the server's reply.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code classifies machine-readable errors (CodeOverloaded,
	// CodeFrameTooLarge). Empty for success and plain statement errors.
	Code string `json:"code,omitempty"`
	// RetryAfterMS accompanies CodeOverloaded: the server's hint for how
	// long to back off before retrying. Client.ExecRetry honors it.
	RetryAfterMS int64      `json:"retry_after_ms,omitempty"`
	Message      string     `json:"message,omitempty"`
	QID          int        `json:"qid,omitempty"`
	Columns      []string   `json:"columns,omitempty"`
	Rows         []RowJSON  `json:"rows,omitempty"`
	Trace        []TraceRow `json:"trace,omitempty"`
	// Stats is the per-statement runtime summary line (rows, wall time,
	// envelope operations) for statements that report one. Kept for
	// existing clients; StatsDetail carries the same numbers structured.
	Stats string `json:"stats,omitempty"`
	// StatsDetail is the structured form of Stats, including the
	// per-operator breakdown of the statement's plan.
	StatsDetail *StatsJSON `json:"stats_detail,omitempty"`
	// TraceID is the statement's lifecycle trace id (set on success, on
	// statement errors, and on sheds — shed traces are always retained, so
	// a turned-away client can still hand support a fetchable id).
	TraceID string `json:"trace_id,omitempty"`
}

// StatsJSON is the structured per-statement runtime summary on the wire.
type StatsJSON struct {
	// Rows is the number of result rows returned.
	Rows int `json:"rows"`
	// WallMicros is the statement's elapsed wall time in microseconds.
	WallMicros int64 `json:"wall_us"`
	// OpRows counts rows produced by all plan operators.
	OpRows int64 `json:"op_rows"`
	// Merges and Curates count envelope operations.
	Merges  int64 `json:"merges"`
	Curates int64 `json:"curates"`
	// QueueWaitMicros is the admission-queue wait before the statement
	// entered the engine (0 when it was admitted instantly or admission
	// control is disabled).
	QueueWaitMicros int64 `json:"queue_wait_us,omitempty"`
	// StalePending, when above zero, is the number of deferred
	// summary-maintenance tasks outstanding when the statement finished —
	// the result's summaries may lag the raw annotations (degraded mode).
	StalePending int `json:"stale_pending,omitempty"`
	// Replica marks a statement served by a read replica. ReplicaLagLSN
	// and ReplicaLagMS are the explicit staleness bound the result was
	// served under: the data reflects the primary as of at most this many
	// records and milliseconds ago (both omitted when fully caught up).
	Replica       bool   `json:"replica,omitempty"`
	ReplicaLagLSN uint64 `json:"replica_lag_lsn,omitempty"`
	ReplicaLagMS  int64  `json:"replica_lag_ms,omitempty"`
	// Ops is the per-operator breakdown in depth-first plan order.
	Ops []OpStatJSON `json:"ops,omitempty"`
	// TraceID duplicates Response.TraceID so tooling consuming only
	// stats_detail can cross-link the lifecycle trace.
	TraceID string `json:"trace_id,omitempty"`
}

// OpStatJSON is one operator's runtime counters on the wire.
type OpStatJSON struct {
	Op         string `json:"op"`
	Rows       int64  `json:"rows"`
	Merges     int64  `json:"merges,omitempty"`
	Curates    int64  `json:"curates,omitempty"`
	WallMicros int64  `json:"wall_us,omitempty"`
}

// RowJSON is one result row on the wire.
type RowJSON struct {
	Values []types.Value `json:"values"`
	// Summaries maps instance name to the rendered summary object.
	Summaries map[string]string `json:"summaries,omitempty"`
	// ZoomLabels maps instance name to its 1-indexed zoomable elements.
	ZoomLabels map[string][]string `json:"zoom_labels,omitempty"`
}

// TraceRow is one under-the-hood trace entry on the wire.
type TraceRow struct {
	Stage   string        `json:"stage"`
	Values  []types.Value `json:"values"`
	Summary string        `json:"summary,omitempty"`
}

// ReplicaSource reports the staleness of a replica-serving engine. When
// a Server carries one, it serves in replica mode: read statements only,
// every response annotated with the staleness bound it was served under,
// and reads shed with a structured STALE error once the source reports
// the bound exceeded. The replication receiver implements it.
type ReplicaSource interface {
	// Staleness returns how far the local state trails the primary: in
	// records (primary tip LSN minus applied LSN) and in time (age of the
	// last caught-up contact with the primary), plus whether the
	// configured hard bound is currently exceeded.
	Staleness() (lagLSN uint64, lag time.Duration, stale bool)
}

// Server serves one engine over a listener.
type Server struct {
	db *engine.DB

	// Replica, when set, puts the server in replica mode (see
	// ReplicaSource). Set before Listen.
	Replica ReplicaSource

	// StatementTimeout, when positive, bounds each statement's execution:
	// the statement's context expires after this duration and the engine
	// aborts it at its next cancellation poll. Set before Listen.
	StatementTimeout time.Duration

	// Admission configures the statement-concurrency limiter with its
	// bounded, deadline-aware wait queue (zero value disables). Requests
	// beyond capacity are shed with a structured retryable error instead
	// of stacking up. Set before Listen.
	Admission AdmissionConfig
	// MaxConns, when positive, caps concurrently open client connections.
	// Connections past the cap are answered with one structured
	// CodeOverloaded response and closed. Set before Listen.
	MaxConns int
	// IdleTimeout, when positive, closes connections that send no request
	// for this long — a slow-loris guard and a bound on idle descriptors.
	IdleTimeout time.Duration
	// WriteTimeout, when positive, bounds each response write: a client
	// that stops reading cannot park a handler in Flush forever; the
	// write times out and the connection closes.
	WriteTimeout time.Duration
	// MaxFrameBytes caps one request line (default 16 MiB). Oversized
	// frames are answered with a structured CodeFrameTooLarge error and
	// the connection closes (the stream position is unrecoverable).
	MaxFrameBytes int

	listener  net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	// baseCtx parents every per-statement context; Shutdown cancels it on
	// the forced path so in-flight statements abort at their next poll.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// connMu guards conns, the registry of live client connections and
	// their busy/idle state, which Shutdown uses to close idle
	// connections immediately and drain busy ones.
	connMu sync.Mutex
	conns  map[net.Conn]*connState

	// testHookExec, when set, is invoked at the top of every statement
	// execution — before the engine is entered — so tests can observe and
	// synchronize concurrent statements deterministically.
	testHookExec func(Request)

	// admit is the admission limiter built from Admission at Listen time
	// (nil when disabled).
	admit *admission
	// active counts open client connections for the MaxConns cap.
	active atomic.Int64

	// Front-end metrics; nil handles (metrics disabled) are no-ops.
	connections   *metrics.Counter
	activeConns   *metrics.Gauge
	requests      *metrics.Counter
	requestErrors *metrics.Counter
	panics        *metrics.Counter
	connsRefused  *metrics.Counter
	staleSheds    *metrics.Counter
	readOnly      *metrics.Counter
}

// New creates a server over db. When the engine's metric registry is
// enabled, the server registers its front-end metrics there (get-or-create,
// so multiple servers over one DB share the counters).
func New(db *engine.DB) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		db:         db,
		closed:     make(chan struct{}),
		baseCtx:    ctx,
		baseCancel: cancel,
		conns:      make(map[net.Conn]*connState),
	}
	if reg := db.Metrics(); reg != nil {
		s.connections = reg.Counter(metrics.NameServerConnectionsTotal, "Client connections accepted.")
		s.activeConns = reg.Gauge(metrics.NameServerActiveConnections, "Client connections currently open.")
		s.requests = reg.Counter(metrics.NameServerRequestsTotal, "Protocol requests received.")
		s.requestErrors = reg.Counter(metrics.NameServerRequestErrorsTotal, "Protocol requests answered with an error.")
		s.panics = reg.Counter(metrics.NameServerPanicsTotal, "Statement executions that panicked and were contained.")
		s.connsRefused = reg.Counter(metrics.NameServerConnsRefusedTotal,
			"Connections refused at the connection cap (answered with a structured shed and closed).")
		s.staleSheds = reg.Counter(metrics.NameReplStaleShedsTotal,
			"Reads shed with a structured STALE error past the replica's -max-staleness bound.")
		s.readOnly = reg.Counter(metrics.NameReplReadOnlyTotal,
			"Mutations rejected by a read-only replica with a structured READ_ONLY error.")
	}
	return s
}

// defaultMaxFrameBytes caps request lines when MaxFrameBytes is unset.
const defaultMaxFrameBytes = 16 << 20

func (s *Server) maxFrameBytes() int {
	if s.MaxFrameBytes > 0 {
		return s.MaxFrameBytes
	}
	return defaultMaxFrameBytes
}

// newFrameScanner builds the newline-delimited frame reader both ends of
// the protocol share: a line scanner with a small initial buffer that can
// grow to the frame cap.
func newFrameScanner(r io.Reader, maxFrame int) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	initial := 1 << 20
	if maxFrame < initial {
		initial = maxFrame
	}
	sc.Buffer(make([]byte, initial), maxFrame)
	return sc
}

// Listen binds addr (e.g. "127.0.0.1:7090") and starts accepting
// connections in background goroutines. It returns the bound address
// (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.admit = newAdmission(s.Admission, s.db.Metrics())
	s.listener = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		if s.MaxConns > 0 && s.active.Add(1) > int64(s.MaxConns) {
			s.active.Add(-1)
			s.connsRefused.Inc()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.refuseConn(conn)
			}()
			continue
		} else if s.MaxConns <= 0 {
			s.active.Add(1)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.active.Add(-1)
			s.serveConn(conn)
		}()
	}
}

// refuseConn answers one connection past the MaxConns cap with a
// structured retryable shed and closes it — the client learns to back off
// instead of hanging on a silently dropped connection.
func (s *Server) refuseConn(conn net.Conn) {
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	resp := Response{
		Error:        fmt.Sprintf("server overloaded: connection limit (%d) reached", s.MaxConns),
		Code:         CodeOverloaded,
		RetryAfterMS: 1000,
	}
	b, err := json.Marshal(&resp)
	if err != nil {
		return
	}
	conn.Write(append(b, '\n'))
}

// connState tracks whether a connection is mid-request, so Shutdown can
// tell idle connections (parked in a read, safe to close now) from busy
// ones (a statement in flight that must drain first).
type connState struct {
	busy atomic.Bool
}

// serveConn handles one client connection until EOF or shutdown.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	st := &connState{}
	s.connMu.Lock()
	s.conns[conn] = st
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
	}()
	s.connections.Inc()
	s.activeConns.Add(1)
	defer s.activeConns.Add(-1)
	in := newFrameScanner(conn, s.maxFrameBytes())
	out := bufio.NewWriter(conn)
	enc := json.NewEncoder(out)
	for {
		// Idle guard: a connection that sends nothing within the timeout
		// is closed rather than holding a descriptor forever.
		if s.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
		if !in.Scan() {
			if errors.Is(in.Err(), bufio.ErrTooLong) {
				// The frame exceeded the cap; the stream position is lost,
				// so answer structurally and close.
				s.writeResponse(conn, out, enc, &Response{
					Error: fmt.Sprintf("request frame exceeds %d byte cap", s.maxFrameBytes()),
					Code:  CodeFrameTooLarge,
				})
			}
			return
		}
		st.busy.Store(true)
		line := in.Bytes()
		if len(line) == 0 {
			st.busy.Store(false)
			continue
		}
		var req Request
		resp := Response{}
		s.requests.Inc()
		if err := json.Unmarshal(line, &req); err != nil {
			resp.Error = fmt.Sprintf("bad request: %v", err)
		} else {
			resp = s.execute(req)
		}
		if !resp.OK {
			s.requestErrors.Inc()
		}
		if err := s.writeResponse(conn, out, enc, &resp); err != nil {
			return
		}
		st.busy.Store(false)
		// Draining: the request that was in flight is answered; stop
		// reading further ones.
		select {
		case <-s.closed:
			return
		default:
		}
	}
}

// writeResponse encodes and flushes one response under the write deadline:
// a client that stops reading cannot park this handler (and the engine
// slot behind it) in Flush forever — the write errors out and the caller
// closes the connection.
func (s *Server) writeResponse(conn net.Conn, out *bufio.Writer, enc *json.Encoder, resp *Response) error {
	if s.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
	}
	if err := enc.Encode(resp); err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	if s.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Time{})
	}
	return nil
}

// execute runs one statement under a fresh per-statement context.
// Concurrency control lives in the engine's statement-level reader/writer
// lock, so read statements from different connections overlap.
//
// A panic anywhere below this frame is contained: the client receives a
// structured internal-error response and the connection (and every other
// connection) keeps working. One misbehaving statement must not take
// down the shared middleware process.
func (s *Server) execute(req Request) (resp Response) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Inc()
			resp = Response{Error: fmt.Sprintf("internal error: statement execution panicked: %v", r)}
		}
	}()
	if err := failpoint.Eval(failpoint.ServerExecPanic); err != nil {
		panic(err)
	}
	preStmt, stmtText, err := resolveRequest(req)
	if err != nil {
		return Response{Error: err.Error()}
	}
	ctx := s.baseCtx
	if s.StatementTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.StatementTimeout)
		defer cancel()
	}
	// The lifecycle trace starts here, at the wire, so the admission-queue
	// wait is its first span and engine spans (parse, plan, exec, WAL) nest
	// in the same trace.
	at := s.db.Tracer().Start(stmtText)
	traceID := ""
	if at != nil {
		traceID = at.ID().String()
	}
	// Replica mode: only read statements are served, and only while the
	// staleness bound holds. The gate runs before admission so a rejected
	// statement never consumes an execution slot.
	if s.Replica != nil {
		if resp, rejected := s.replicaGate(stmtText, preStmt, at, traceID); rejected {
			return resp
		}
	}
	// Admission control: get an execution slot or shed. The statement's
	// own deadline keeps ticking while queued — a request that would
	// expire waiting is turned away with the structured retryable error
	// instead of timing out uselessly inside the engine.
	var queueWait time.Duration
	if s.admit != nil {
		queueStart := time.Now()
		release, shed := s.admit.acquire(ctx)
		queueWait = time.Since(queueStart)
		// Attached as a pre-measured span so even shell traces (shed
		// statements at low sample rates are always retained) carry the
		// queue wait, and promoted traces pay no extra clock reads.
		at.Root().AddChild(trace.SpanQueueWait, queueWait)
		if shed != nil {
			// Shed statements finish as errored traces — always retained —
			// so overload turn-aways stay visible in SHOW TRACES.
			at.Finish("shed", errors.New(shed.reason))
			resp := shedResponse(shed)
			resp.TraceID = traceID
			return resp
		}
		defer release()
	}
	if s.testHookExec != nil {
		s.testHookExec(req)
	}
	opts := []engine.StatementOption{engine.WithActiveTrace(at), engine.WithQueueWait(queueWait)}
	if req.Trace {
		opts = append(opts, engine.WithTrace())
	}
	var res *engine.Result
	if preStmt != nil {
		res, err = s.db.ExecStatement(ctx, preStmt, stmtText, opts...)
	} else {
		res, err = s.db.Exec(ctx, stmtText, opts...)
	}
	if err != nil {
		if errors.Is(err, storage.ErrCorrupt) {
			// The statement touched a quarantined or checksum-failed page:
			// shed with the structured code (the error names the page)
			// instead of returning what looks like an ordinary failure.
			return Response{Error: err.Error(), Code: CodeCorrupt, TraceID: traceID}
		}
		return Response{Error: err.Error(), TraceID: traceID}
	}
	resp = Response{OK: true, Message: res.Message, QID: res.QID, TraceID: res.TraceID}
	if res.Stats != nil {
		resp.Stats = res.Stats.String()
		detail := &StatsJSON{
			Rows:            res.Stats.Rows,
			WallMicros:      res.Stats.Wall.Microseconds(),
			QueueWaitMicros: res.Stats.QueueWait.Microseconds(),
			OpRows:          res.Stats.OpRows,
			Merges:          res.Stats.Merges,
			Curates:         res.Stats.Curates,
			StalePending:    res.Stats.StalePending,
			TraceID:         res.TraceID,
		}
		for _, op := range res.Ops {
			detail.Ops = append(detail.Ops, OpStatJSON{
				Op: op.Op, Rows: op.Rows, Merges: op.Merges,
				Curates: op.Curates, WallMicros: op.WallMicros,
			})
		}
		resp.StatsDetail = detail
	}
	if s.Replica != nil {
		// Every replica-served statement carries its explicit staleness
		// bound, even ones that report no runtime stats of their own.
		lagLSN, lag, _ := s.Replica.Staleness()
		if resp.StatsDetail == nil {
			resp.StatsDetail = &StatsJSON{TraceID: res.TraceID}
		}
		resp.StatsDetail.Replica = true
		resp.StatsDetail.ReplicaLagLSN = lagLSN
		resp.StatsDetail.ReplicaLagMS = lag.Milliseconds()
	}
	for _, c := range res.Schema.Columns {
		resp.Columns = append(resp.Columns, c.QualifiedName())
	}
	for i, row := range res.Rows {
		rj := RowJSON{Values: row.Tuple}
		if res.Materialized != nil {
			// Rendered and labelled once, when the result was materialized.
			rj.Summaries, rj.ZoomLabels = res.Materialized[i].Rendered, res.Materialized[i].Label
		} else if row.Env != nil && !row.Env.IsEmpty() {
			rj.Summaries = map[string]string{}
			rj.ZoomLabels = map[string][]string{}
			for _, name := range row.Env.InstanceNames() {
				obj := row.Env.Object(name)
				rj.Summaries[name] = obj.Render()
				for _, el := range obj.Elements() {
					rj.ZoomLabels[name] = append(rj.ZoomLabels[name], el.Label)
				}
			}
		}
		resp.Rows = append(resp.Rows, rj)
	}
	for _, e := range res.Trace {
		resp.Trace = append(resp.Trace, TraceRow{Stage: e.Stage, Values: e.Tuple, Summary: e.Summary})
	}
	return resp
}

// resolveRequest maps a request's kind onto the execution path. Most
// requests resolve to statement text alone; two shapes resolve to a
// pre-built AST (stmt non-nil) that execute dispatches through
// engine.ExecStatement, so structured argument values never have to
// survive a render-reparse round trip:
//
//   - "execute": an sql.Execute carrying the args as Literal values
//     (rendered text is still returned — it is the trace label)
//   - "exec" with Args: the one-shot parameterized form; the statement is
//     parsed and its $n placeholders bound here
//
// The other prepared kinds are synthesized into text and flow through the
// ordinary parse path, so PREPARE via the wire and PREPARE typed into a
// REPL are the same statement.
func resolveRequest(req Request) (sql.Statement, string, error) {
	kind := strings.ToLower(req.Kind)
	if kind != "" && kind != "exec" && req.Name == "" {
		return nil, "", fmt.Errorf("bad request: kind %q requires a statement name", req.Kind)
	}
	switch kind {
	case "", "exec":
		if len(req.Args) == 0 {
			return nil, req.Stmt, nil
		}
		stmt, err := sql.Parse(req.Stmt)
		if err != nil {
			return nil, "", err
		}
		bound, err := sql.BindParams(stmt, req.Args)
		if err != nil {
			return nil, "", err
		}
		return bound, bound.String(), nil
	case "prepare":
		if strings.TrimSpace(req.Stmt) == "" {
			return nil, "", fmt.Errorf("bad request: prepare requires a statement")
		}
		return nil, "PREPARE " + req.Name + " AS " + req.Stmt, nil
	case "execute":
		ex := &sql.Execute{Name: req.Name}
		for _, v := range req.Args {
			ex.Args = append(ex.Args, &sql.Literal{Val: v})
		}
		return ex, ex.String(), nil
	case "deallocate":
		return nil, "DEALLOCATE " + req.Name, nil
	default:
		return nil, "", fmt.Errorf("bad request: unknown kind %q", req.Kind)
	}
}

// replicaGate applies replica mode to one statement by its access class
// (sql.Class): writes are rejected with CodeReadOnly, reads past the
// staleness bound are shed with CodeStale, admissible reads and node-local
// statements pass through (false). CHECK TABLE is node-local because it
// verifies and repairs this node's own pages, and a replica is exactly
// where on-demand repair from the primary matters; PREPARE and DEALLOCATE
// because they touch only the local registry — EXECUTE is where the
// template's class is enforced. Unparsable statements pass through too:
// the engine produces its usual error. When the request resolved to a
// pre-built AST (pre non-nil), it is classified directly; its rendered
// text may elide detail and must not be re-parsed.
func (s *Server) replicaGate(stmtText string, pre sql.Statement, at *trace.Active, traceID string) (Response, bool) {
	stmt := pre
	if stmt == nil {
		var err error
		stmt, err = sql.Parse(stmtText)
		if err != nil {
			return Response{}, false
		}
	}
	access := stmt.Class().Access
	ex, _ := stmt.(*sql.Execute)
	if ex != nil {
		// EXECUTE takes the class of the template it runs; with no such
		// template it is held to the staleness bound like a read.
		access = sql.Read
		if tmpl, ok := s.db.PreparedTemplate(ex.Name); ok {
			stmt, access = tmpl, tmpl.Class().Access
		}
	}
	switch access {
	case sql.NodeLocal:
		return Response{}, false
	case sql.Write:
		s.readOnly.Inc()
		what := strings.TrimPrefix(fmt.Sprintf("%T", stmt), "*sql.")
		if ex != nil {
			what = fmt.Sprintf("EXECUTE %s is a %s and", ex.Name, what)
		}
		rerr := fmt.Errorf("replica is read-only: %s must run on the primary", what)
		at.Finish("read_only_reject", rerr)
		return Response{Error: rerr.Error(), Code: CodeReadOnly, TraceID: traceID}, true
	}
	if lagLSN, lag, stale := s.Replica.Staleness(); stale {
		s.staleSheds.Inc()
		serr := fmt.Errorf("replica too stale: %d record(s), %s behind the primary",
			lagLSN, lag.Round(time.Millisecond))
		at.Finish("stale_shed", serr)
		return Response{Error: serr.Error(), Code: CodeStale, RetryAfterMS: 250, TraceID: traceID}, true
	}
	return Response{}, false
}

// Close stops accepting connections and waits for in-flight requests
// without bound. Use Shutdown to bound the drain.
func (s *Server) Close() error {
	return s.Shutdown(0)
}

// forcedShutdownGrace bounds how long a forced Shutdown waits for
// handlers to unwind after cancelling their statements. A statement
// stuck in code that polls neither its context nor its connection can
// outlive this; Shutdown reports the forced drain rather than hanging.
const forcedShutdownGrace = 250 * time.Millisecond

// Shutdown gracefully stops the server: it stops accepting connections,
// closes idle client connections, and drains requests in flight — each
// busy connection answers its current request, then closes. When timeout
// is positive and the drain exceeds it, in-flight statements are
// cancelled through their contexts and the remaining connections are
// force-closed, reported in the returned error. A zero timeout drains
// without bound.
func (s *Server) Shutdown(timeout time.Duration) error {
	var lnErr error
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.listener != nil {
			lnErr = s.listener.Close()
		}
		// Idle connections are parked in a read waiting for a request
		// that will never be answered; close them now. Busy ones drain:
		// serveConn exits after answering once s.closed is set.
		s.connMu.Lock()
		for conn, st := range s.conns {
			if !st.busy.Load() {
				conn.Close()
			}
		}
		s.connMu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return lnErr
	}
	select {
	case <-done:
		return lnErr
	case <-time.After(timeout):
	}
	// Forced path: abort in-flight statements and unblock their
	// connections, then give the handlers a bounded grace to unwind.
	s.baseCancel()
	s.connMu.Lock()
	forced := len(s.conns)
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	select {
	case <-done:
	case <-time.After(forcedShutdownGrace):
	}
	return fmt.Errorf("server: drain timeout after %s: %d connection(s) force-closed", timeout, forced)
}
