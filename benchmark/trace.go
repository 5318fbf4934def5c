package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"insightnotes/internal/annotation"
	"insightnotes/internal/engine"
	"insightnotes/internal/exec"
	"insightnotes/internal/plan"
	"insightnotes/internal/sql"
	"insightnotes/internal/storage"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
	"insightnotes/internal/wal"
)

// Span names of the traced pass. The harness records them around its own
// calls into each layer; nothing inside the program is instrumented.
const (
	spanStmt      = "stmt"
	spanRoundtrip = "server.roundtrip"
	spanEngine    = "engine.statement"
	spanParse     = "sql.parse"
	spanPlan      = "plan.select"
	spanExec      = "exec.run"
	spanWAL       = "wal.append"
	spanSummarize = "summary.summarize"
	spanZoom      = "zoomin.zoom"
)

// engineChildren are the spans recorded under engine.statement.
var engineChildren = []string{spanParse, spanPlan, spanExec, spanWAL, spanSummarize, spanZoom}

// span is one timed call. Spans of one sampled statement share Trace;
// Parent is the span that caused this one (0 for the root).
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Class  string `json:"class"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Hit    *bool  `json:"hit,omitempty"` // zoomin.zoom: served from the cache
}

// recorder keeps spans in memory; they are written when the run ends.
type recorder struct {
	origin time.Time
	spans  []span
}

// open starts a span and returns its id; close ends it.
func (r *recorder) open(trace, parent int, name string, c class) int {
	r.spans = append(r.spans, span{
		Trace: trace, ID: len(r.spans) + 1, Parent: parent, Name: name, Class: c.String(),
		Start: time.Since(r.origin).Nanoseconds(),
	})
	return len(r.spans)
}

func (r *recorder) close(id int) { r.spans[id-1].End = time.Since(r.origin).Nanoseconds() }

// timed records fn as a span and returns the span's id.
func (r *recorder) timed(trace, parent int, name string, c class, fn func()) int {
	id := r.open(trace, parent, name, c)
	fn()
	r.close(id)
	return id
}

// durations returns the span durations in microseconds, by name and class.
func (r *recorder) durations() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, s := range r.spans {
		if out[s.Name] == nil {
			out[s.Name] = map[string][]float64{}
		}
		out[s.Name][s.Class] = append(out[s.Name][s.Class], float64(s.End-s.Start)/1e3)
	}
	return out
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer is the state of the traced pass: one extra connection with its
// own statement stream, and what the layer calls need.
type tracer struct {
	e         *env
	rec       *recorder
	cl        *client
	scratch   *wal.Log // same file system as the engine's log
	filler    string
	template  sql.Statement // the prepared point SELECT, parsed
	memo      *plan.PathMemo
	instances []*summary.Instance
}

// tracedPass replays a sample of the next statements of the stream from
// one goroutine. Each sampled statement is sent over the wire, then a
// second statement of the same class is run through the embedded API, and
// the layers under it are timed on their own public calls: parse, plan
// and execute for reads, WAL append and summarization for writes, the
// cache lookup for zoom-ins. A write changes state, so the embedded call
// and the wire call cannot be the same statement; and a read repeated on
// the same text would hit the plan cache the first one filled.
func (e *env) tracedPass(rec *recorder) error {
	cl, err := dial(e.addr, newOpGen(e.sp, e.cfg.seed, len(e.clients)), e.truth, e.bad)
	if err != nil {
		return err
	}
	// The tracer's connection joins the clients: close() ends it, and the
	// zoom probe wants its QIDs, the newest there are.
	cl.ring = append(cl.ring, e.clients[0].ring...)
	e.clients = append(e.clients, cl)
	t := &tracer{e: e, rec: rec, cl: cl, filler: strings.Repeat("x", 1<<16), memo: plan.NewPathMemo()}
	if t.scratch, err = wal.Open(filepath.Join(e.dataDir, "scratch.wal"), 0); err != nil {
		return err
	}
	defer t.scratch.Close()
	if t.template, err = sql.Parse(pointSelect + "$1"); err != nil {
		return err
	}
	t.instances = e.db.Catalog().InstancesFor("birds")
	for i := 1; i <= e.sp.traceOps; i++ {
		c := cl.gen.pick()
		if c == zoomQ && len(cl.ring) == 0 {
			c = selAdhoc
		}
		root := rec.open(i, 0, spanStmt, c)
		if err := t.statement(i, root, c); err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		rec.close(root)
	}
	return nil
}

func (t *tracer) statement(trace, root int, c class) (err error) {
	ctx := context.Background()
	e, cl, rec := t.e, t.cl, t.rec

	rt := rec.open(trace, root, spanRoundtrip, c)
	_, _, _, ok, err := cl.run(ctx, cl.gen.make(c))
	rec.close(rt)
	if err != nil || !ok {
		return fmt.Errorf("statement over the wire failed: %v", err)
	}

	o := cl.gen.make(c)
	cl.target(&o)
	cl.before(&o)
	w0 := e.db.WAL().Stats().BytesWritten
	eng := rec.open(trace, root, spanEngine, c)
	if c == selPrepared {
		ex := &sql.Execute{Name: cl.stmt.Name(), Args: []sql.Expr{&sql.Literal{Val: types.NewInt(int64(o.key))}}}
		_, err = e.db.ExecStatement(ctx, ex, ex.String())
	} else {
		_, err = e.db.Exec(ctx, o.stmt)
	}
	rec.close(eng)
	if err != nil {
		return err
	}
	walBytes := int(e.db.WAL().Stats().BytesWritten - w0)
	cl.acked(&o)

	switch {
	case c.write():
		// The host's cost of making a record of this size durable.
		rec.timed(trace, eng, spanWAL, c, func() {
			_, err = t.scratch.Append("probe", t.filler[:min(len(t.filler), max(1, walBytes-64))])
		})
		if c == annotateW {
			a := annotation.Annotation{Text: o.text, Title: o.title, Document: o.doc}
			rec.timed(trace, eng, spanSummarize, c, func() {
				for _, in := range t.instances {
					in.Summarize(a)
				}
			})
		}
	case c == zoomQ:
		z := cl.gen.make(c)
		q := cl.target(&z)
		var hit bool
		id := rec.timed(trace, eng, spanZoom, c, func() {
			_, hit, err = e.db.ZoomIn(ctx, engine.ZoomInRequest{QID: q.qid, Instance: classifier, Index: z.label})
		})
		rec.spans[id-1].Hit = &hit
	default:
		d := cl.gen.make(c)
		var stmt sql.Statement
		opts := plan.Options{Parallelism: runtime.GOMAXPROCS(0)}
		if c == selPrepared {
			stmt, err = sql.BindParams(t.template, []types.Value{types.NewInt(int64(d.key))})
			opts.Memo = t.memo
		} else {
			rec.timed(trace, eng, spanParse, c, func() { stmt, err = sql.Parse(d.stmt) })
			opts.Memo = plan.NewPathMemo()
		}
		if err != nil {
			return err
		}
		var tree exec.Operator
		rec.timed(trace, eng, spanPlan, c, func() {
			tree, err = plan.New(e.db.Catalog(), e.db, opts).PlanSelect(stmt.(*sql.Select))
		})
		if err != nil {
			return err
		}
		rec.timed(trace, eng, spanExec, c, func() {
			_, err = exec.CollectContext(exec.NewContext(ctx), tree)
		})
	}
	return err
}

// ---- layer probes: public calls of one layer, timed on their own ----

const probeSamples = 256

// timeEach returns the median duration of fn over n calls, in nanoseconds.
// prepare runs untimed before every call.
func timeEach(n int, prepare func(i int), fn func(i int)) float64 {
	ds := make([]float64, n)
	for i := range ds {
		if prepare != nil {
			prepare(i)
		}
		start := time.Now()
		fn(i)
		ds[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(ds)
}

// probeSummary times the summary algebra on clones of stored envelopes,
// and Instance.Summarize on annotation bodies drawn like the workload's.
func probeSummary(e *env) (mergeNS, combineNS, projectNS, summarizeUS float64) {
	rows := e.db.Annotations().AnnotatedRows("birds")
	if len(rows) > probeSamples {
		rows = rows[:probeSamples]
	}
	if len(rows) < 2 {
		return
	}
	width := 5 // columns of birds
	var a, b *summary.Envelope
	clones := func(i int) {
		a = e.db.EnvelopeFor("birds", rows[i])
		b = e.db.EnvelopeFor("birds", rows[(i+1)%len(rows)])
	}
	mergeNS = timeEach(len(rows), clones, func(int) { a.Merge(b, width) })
	combineNS = timeEach(len(rows), clones, func(int) { a.Combine(b) })
	projectNS = timeEach(len(rows), clones, func(int) { a.Project([]int{0, 3}) })

	og := newOpGen(e.sp, e.cfg.seed, len(e.clients)+1)
	instances := e.db.Catalog().InstancesFor("birds")
	anns := make([]annotation.Annotation, probeSamples)
	for i := range anns {
		o := og.make(annotateW)
		anns[i] = annotation.Annotation{Text: o.text, Title: o.title, Document: o.doc}
	}
	summarizeUS = timeEach(len(anns), nil, func(i int) {
		for _, in := range instances {
			in.Summarize(anns[i])
		}
	}) / 1e3
	return
}

// probeStorage times BufferPool.Fetch over a FileStore with the workload's
// pool size — resident pages and pages that must be read — and B+tree
// seeks over as many keys as the workload has rows.
func probeStorage(e *env, dir string) (hitNS, missUS, seekNS float64, err error) {
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	fs, err := storage.OpenFileStore(filepath.Join(dir, "pages.db"))
	if err != nil {
		return
	}
	defer fs.Close()
	frames := e.sp.poolFrames
	bp := storage.NewBufferPool(fs, frames)
	ids := make([]storage.PageID, frames+probeSamples)
	for i := range ids {
		id, _, aerr := bp.Allocate()
		if aerr != nil {
			return 0, 0, 0, aerr
		}
		ids[i] = id
		bp.Unpin(id, true)
	}
	if err = bp.FlushAll(); err != nil {
		return
	}
	const batch = 16 // a resident fetch is shorter than a clock read
	last := ids[len(ids)-1]
	hitNS = timeEach(probeSamples, nil, func(int) {
		for k := 0; k < batch; k++ {
			bp.Fetch(last)
			bp.Unpin(last, false)
		}
	}) / batch
	// The pool evicts least-recently-used, so walking more pages than it
	// holds in a cycle misses every time.
	missUS = timeEach(2*probeSamples, nil, func(i int) {
		id := ids[i%len(ids)]
		bp.Fetch(id)
		bp.Unpin(id, false)
	}) / 1e3

	tree := storage.NewBTree()
	keys := make([][]byte, e.sp.birds)
	for i := range keys {
		keys[i] = storage.EncodeKey(nil, types.NewInt(int64(i+1)))
		tree.Insert(keys[i], uint64(i+1))
	}
	r := rand.New(rand.NewSource(e.cfg.seed))
	seekNS = timeEach(probeSamples, nil, func(int) {
		for k := 0; k < batch; k++ {
			tree.Seek(keys[r.Intn(len(keys))])
		}
	}) / batch
	return
}

// probeZoom times db.ZoomIn on the newest QIDs the clients hold, which are
// resident, and then on the first ones they saw, evicted long ago, and
// splits the calls on the hit flag ZoomIn returns. Newest first: a miss
// re-executes the query and admits its result, evicting others.
func probeZoom(e *env) (hitUS, missUS float64) {
	const perSide = 48
	ctx := context.Background()
	var newest, oldest []int
	for i := len(e.clients) - 1; i >= 0; i-- {
		cl := e.clients[i]
		for k := len(cl.ring) - 1; k >= 0 && len(newest) < perSide; k-- {
			newest = append(newest, cl.ring[k].qid)
		}
		oldest = append(oldest, cl.old[:min(len(cl.old), perSide-len(oldest))]...)
	}
	var hits, misses []float64
	for _, qid := range append(newest, oldest...) {
		start := time.Now()
		_, hit, err := e.db.ZoomIn(ctx, engine.ZoomInRequest{QID: qid, Instance: classifier, Index: 1})
		d := float64(time.Since(start).Nanoseconds()) / 1e3
		switch {
		case err != nil:
		case hit:
			hits = append(hits, d)
		default:
			misses = append(misses, d)
		}
	}
	return median(hits), median(misses)
}
