package trace

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestIDRoundTrip(t *testing.T) {
	id := ID(0xdeadbeef12345678)
	s := id.String()
	if !strings.HasPrefix(s, "t") || len(s) != 17 {
		t.Fatalf("canonical form %q: want t + 16 hex digits", s)
	}
	got, err := ParseID(s)
	if err != nil || got != id {
		t.Fatalf("ParseID(%q) = %v, %v; want %v", s, got, err, id)
	}
	// Bare hex (hand-typed, prefix dropped) parses too.
	got, err = ParseID("deadbeef12345678")
	if err != nil || got != id {
		t.Fatalf("ParseID bare hex = %v, %v; want %v", got, err, id)
	}
	if _, err := ParseID("not-a-trace"); err == nil {
		t.Fatal("ParseID accepted garbage")
	}
}

func TestNilSafety(t *testing.T) {
	// Every builder method on nil receivers must be a no-op, not a panic:
	// this is the entire cost model of disabled tracing.
	var tr *Tracer
	at := tr.Start("SELECT 1")
	if at != nil {
		t.Fatal("nil tracer returned a non-nil Active")
	}
	if at.ID() != 0 {
		t.Fatal("nil Active has nonzero id")
	}
	sp := at.StartSpan(SpanParse, nil)
	if sp != nil {
		t.Fatal("nil Active returned a non-nil span")
	}
	sp.End()
	sp.Attr("k", "v")
	sp.AttrInt("n", 1)
	sp.Child(SpanPlan).End()
	sp.AddChild(SpanExec, time.Millisecond)
	at.Finish("select", nil)
	if _, ok := tr.Get(1); ok {
		t.Fatal("nil tracer Get returned ok")
	}
	if tr.Snapshot(10) != nil {
		t.Fatal("nil tracer Snapshot returned traces")
	}
	if st := tr.Stats(); st != (Stats{}) {
		t.Fatalf("nil tracer Stats = %+v", st)
	}
}

func TestTailRetention(t *testing.T) {
	// Sample 0: ordinary traces are dropped, slow and errored always kept.
	tr := New(Config{Sample: 0, SlowThreshold: 50 * time.Millisecond})

	ord := tr.Start("SELECT ordinary")
	ord.Finish("select", nil)
	if _, ok := tr.Get(ord.ID()); ok {
		t.Fatal("ordinary trace retained at sample 0")
	}

	errd := tr.Start("SELECT broken")
	errd.Finish("select", errors.New("boom"))
	got, ok := tr.Get(errd.ID())
	if !ok {
		t.Fatal("errored trace not retained")
	}
	if got.Err != "boom" {
		t.Fatalf("retained error %q", got.Err)
	}

	slow := tr.Start("SELECT slow")
	slow.t.Start = time.Now().Add(-time.Second) // age it past the threshold
	slow.Finish("select", nil)
	got, ok = tr.Get(slow.ID())
	if !ok {
		t.Fatal("slow trace not retained")
	}
	if !got.Slow {
		t.Fatal("slow trace not marked slow")
	}

	st := tr.Stats()
	if st.Started != 3 || st.Retained != 2 || st.SampledOut != 1 {
		t.Fatalf("stats %+v; want started=3 retained=2 sampled_out=1", st)
	}

	// Sample 1: everything is kept.
	tr = New(Config{Sample: 1})
	a := tr.Start("SELECT kept")
	a.Finish("select", nil)
	if _, ok := tr.Get(a.ID()); !ok {
		t.Fatal("trace not retained at sample 1")
	}
}

func TestFinishIdempotentAndClosesOpenSpans(t *testing.T) {
	tr := New(Config{Sample: 1})
	at := tr.Start("UPDATE t SET x = 1")
	sp := at.StartSpan(SpanExec, nil)
	_ = sp // deliberately never ended
	at.Finish("update", nil)
	at.Finish("update", errors.New("second finish must not rewrite")) // no-op
	got, ok := tr.Get(at.ID())
	if !ok {
		t.Fatal("trace not retained")
	}
	if got.Err != "" {
		t.Fatal("second Finish mutated the published trace")
	}
	for i, s := range got.Spans {
		if s.Dur < 0 {
			t.Fatalf("span %d (%s) left open: dur %v", i, s.Name, s.Dur)
		}
	}
	// Post-Finish span operations are inert.
	if h := at.StartSpan(SpanPlan, nil); h != nil {
		t.Fatal("StartSpan after Finish returned a live handle")
	}
	sp.Attr("late", "write")
	if len(got.Spans[1].Attrs) != 0 {
		t.Fatal("attr written after Finish reached the published trace")
	}
}

func TestEvictionPrefersOrdinary(t *testing.T) {
	// Single-stripe-sized store: capacity 8 = 1 per stripe. Drive one
	// stripe directly so insertion order is fully controlled.
	s := newStore(24)                                               // 3 per stripe
	stripeID := func(n uint64) ID { return ID(n*storeStripes + 1) } // all on stripe 1
	mk := func(n uint64, slow bool, errs string) *Trace {
		return &Trace{ID: stripeID(n), Start: time.Unix(int64(n), 0), Slow: slow, Err: errs}
	}
	s.Add(mk(1, true, ""))   // slow
	s.Add(mk(2, false, ""))  // ordinary — the eviction victim
	s.Add(mk(3, false, "x")) // errored
	s.Add(mk(4, false, ""))  // overflows the stripe
	if _, ok := s.Get(stripeID(2)); ok {
		t.Fatal("oldest ordinary trace survived eviction")
	}
	for _, n := range []uint64{1, 3, 4} {
		if _, ok := s.Get(stripeID(n)); !ok {
			t.Fatalf("trace %d evicted; oldest ordinary should go first", n)
		}
	}
	// Adding 5 evicts the remaining ordinary trace (4); adding 6 finds
	// nothing ordinary left, so the oldest slow/errored (1) is sacrificed.
	s.Add(mk(5, true, ""))
	s.Add(mk(6, true, ""))
	if _, ok := s.Get(stripeID(4)); ok {
		t.Fatal("ordinary trace 4 should be evicted before any slow/errored one")
	}
	if _, ok := s.Get(stripeID(1)); ok {
		t.Fatal("expected the oldest retained trace to fall once no ordinary remained")
	}
	if ev := s.stats().Evicted; ev != 3 {
		t.Fatalf("evicted = %d; want 3", ev)
	}
}

func TestSnapshotOrderAndLimit(t *testing.T) {
	tr := New(Config{Sample: 1})
	var ids []ID
	for i := 0; i < 5; i++ {
		a := tr.Start(fmt.Sprintf("SELECT %d", i))
		a.t.Start = time.Unix(int64(1000+i), 0)
		a.Finish("select", nil)
		ids = append(ids, a.ID())
	}
	snap := tr.Snapshot(3)
	if len(snap) != 3 {
		t.Fatalf("limit ignored: got %d traces", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Start.After(snap[i-1].Start) {
			t.Fatal("snapshot not most-recent-first")
		}
	}
	if snap[0].ID != ids[4] {
		t.Fatalf("most recent trace is %v; want %v", snap[0].ID, ids[4])
	}
}

func TestRenderTree(t *testing.T) {
	tr := New(Config{Sample: 1})
	at := tr.Start("UPDATE birds SET seen = 1 WHERE id = 7")
	p := at.StartSpan(SpanParse, nil)
	p.End()
	e := at.StartSpan(SpanExec, nil)
	pl := e.Child(SpanPlan)
	pl.Attr("path", "index_scan")
	pl.End()
	e.AddChild(OpSpan("scan"), time.Millisecond)
	e.End()
	at.Finish("update", nil)
	gotTrace, _ := tr.Get(at.ID())
	lines := RenderTree(gotTrace)
	joined := strings.Join(lines, "\n")
	for _, want := range []string{
		"trace " + at.ID().String(), "kind=update",
		"stmt: UPDATE birds SET seen = 1 WHERE id = 7",
		SpanParse, SpanExec, SpanPlan, "path=index_scan", "op.scan", "self ",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("render missing %q:\n%s", want, joined)
		}
	}
}

func TestJSONWireForm(t *testing.T) {
	tr := New(Config{Sample: 1})
	at := tr.Start("SELECT 1")
	at.StartSpan(SpanParse, nil).End()
	at.Finish("select", nil)
	got, _ := tr.Get(at.ID())
	j := got.JSON()
	if j.ID != at.ID().String() || j.Kind != "select" || len(j.Spans) != 2 {
		t.Fatalf("wire form %+v", j)
	}
	if j.Spans[0].Parent != -1 || j.Spans[1].Parent != 0 {
		t.Fatalf("wire parent links: %+v", j.Spans)
	}
}
