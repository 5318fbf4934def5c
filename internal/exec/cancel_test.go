package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"insightnotes/internal/catalog"
	"insightnotes/internal/types"
)

// testBatchSize is the small pipeline batch used by the cancellation
// tests, so promptness bounds stay tight.
const testBatchSize = 8

// intValues builds a single-column table of n integer rows.
func intValues(n int) *ValuesOp {
	schema := types.NewSchema(types.Column{Name: "n", Kind: types.KindInt})
	rows := make([]*Row, n)
	for i := range rows {
		rows[i] = &Row{Tuple: types.Tuple{types.NewInt(int64(i))}}
	}
	return NewValues(schema, rows)
}

// intTable builds a catalog table of one indexed integer column n holding
// 0..n-1.
func intTable(t *testing.T, n int) *catalog.Table {
	t.Helper()
	tbl, err := catalog.New().CreateTable("ints", types.NewSchema(types.Column{Name: "n", Kind: types.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(types.Tuple{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("n"); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// cancelAfter passes batches through and fires cancel once the wrapped
// operator has produced n rows — a deterministic mid-execution
// cancellation trigger.
type cancelAfter struct {
	Operator
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfter) NextBatch(ec *ExecContext) (*Batch, error) {
	b, err := c.Operator.NextBatch(ec)
	if b.Len() > 0 {
		c.seen += b.Len()
		if c.seen >= c.n {
			c.cancel()
		}
	}
	return b, err
}

// closeTracker records whether Open and Close reached the wrapped operator.
type closeTracker struct {
	Operator
	opened, closed bool
}

func (c *closeTracker) Open(ec *ExecContext) error {
	c.opened = true
	return c.Operator.Open(ec)
}

func (c *closeTracker) Close() error {
	c.closed = true
	return c.Operator.Close()
}

func TestCancelMidScan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	values := intValues(40 * testBatchSize)
	op := &cancelAfter{Operator: values, n: 10, cancel: cancel}
	_, err := CollectContext(NewContext(ctx).WithBatchSize(testBatchSize), op)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The cancel fires mid-batch; the producer finishes that batch and the
	// next per-batch poll aborts the statement.
	produced := values.Stats().Rows
	if produced < 10 || produced > int64(10+testBatchSize) {
		t.Fatalf("scan produced %d rows; want cancellation within one batch (%d rows) of the trigger",
			produced, testBatchSize)
	}
}

func TestPreCancelledContextFailsFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Three rows fit in a single batch; the unconditional entry check must
	// still fail the statement before the operator is even opened.
	tracked := &closeTracker{Operator: intValues(3)}
	rows, err := CollectContext(NewContext(ctx), tracked)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if len(rows) != 0 {
		t.Fatalf("got %d rows from a cancelled statement", len(rows))
	}
	if tracked.opened {
		t.Fatal("operator opened despite pre-cancelled context")
	}
}

func TestDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := CollectContext(NewContext(ctx), intValues(3))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelMidHashJoinBuild cancels a join's build under two probe
// inputs: plain values, and a keyable scan that would take the build's
// keys once the build finished.
func TestCancelMidHashJoinBuild(t *testing.T) {
	for _, keyed := range []bool{false, true} {
		t.Run(fmt.Sprint("keyed=", keyed), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var probe Operator = intValues(4)
			var scan *Scan
			if keyed {
				scan = NewScan(intTable(t, 4), "", FullTable(), nil)
				probe = scan
			}
			left := &closeTracker{Operator: probe}
			buildInput := &closeTracker{Operator: intValues(40 * testBatchSize)}
			right := &cancelAfter{Operator: buildInput, n: 5, cancel: cancel}
			join := NewHashJoin(left, right,
				[]*Compiled{colRef(t, "n", left.Schema())},
				[]*Compiled{colRef(t, "n", buildInput.Schema())})
			if keyed {
				join.KeyProbe(scan, 0, "n", 70)
			}
			_, err := CollectContext(NewContext(ctx).WithBatchSize(testBatchSize), join)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
			// The join's Open failed mid-build after opening both children;
			// the collector must still cascade Close through the whole tree.
			if !left.opened || !buildInput.opened {
				t.Fatal("join children were not opened before the build cancellation")
			}
			if !left.closed || !buildInput.closed {
				t.Fatalf("leaked open operators after cancelled build: left closed=%v right closed=%v",
					left.closed, buildInput.closed)
			}
		})
	}
}

func TestCancelMidNestedLoopProbe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	left := &closeTracker{Operator: intValues(50)}
	right := &closeTracker{Operator: intValues(100)}
	join := NewNestedLoopJoin(left, right, nil) // cross join: 5000 inner iterations
	op := &cancelAfter{Operator: join, n: 5, cancel: cancel}
	_, err := CollectContext(NewContext(ctx).WithBatchSize(testBatchSize), op)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if join.Stats().Rows >= 5000 {
		t.Fatal("cross join ran to completion despite cancellation")
	}
	if !left.closed || !right.closed {
		t.Fatalf("leaked open operators: left closed=%v right closed=%v", left.closed, right.closed)
	}
}

func TestExplainAnalyzeCounters(t *testing.T) {
	values := intValues(5)
	limit := NewLimit(values, 3)
	ec := Background().WithTiming()
	rows, err := CollectContext(ec, limit)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	out := ExplainAnalyze(limit)
	// The values leaf produced its full 5-row batch; the limit truncated
	// the batch to 3 rows and never pulled again.
	if !strings.Contains(out, "Limit 3  (rows=3 batches=1") {
		t.Fatalf("EXPLAIN ANALYZE missing limit counters:\n%s", out)
	}
	if !strings.Contains(out, "Values (5 rows)  (rows=5 batches=1") {
		t.Fatalf("EXPLAIN ANALYZE missing values counters:\n%s", out)
	}
	totals := ec.Totals()
	if totals.OpRows != 8 { // 5 from the values leaf + 3 from the limit
		t.Fatalf("statement OpRows = %d, want 8", totals.OpRows)
	}
}

func TestBatchSizeOne(t *testing.T) {
	// Batch size 1 degenerates to the old row-at-a-time protocol and must
	// still produce every row exactly once.
	values := intValues(17)
	rows, err := CollectContext(Background().WithBatchSize(1), values)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 17 {
		t.Fatalf("got %d rows, want 17", len(rows))
	}
	if st := values.Stats(); st.Batches != 17 {
		t.Fatalf("got %d batches, want 17", st.Batches)
	}
}
