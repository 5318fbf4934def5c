package exec

import (
	"insightnotes/internal/annotation"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// Row is one pipeline element: a data tuple plus its annotation-summary
// envelope. Env may be nil when the tuple carries no annotations.
type Row struct {
	Tuple types.Tuple
	Env   *summary.Envelope
}

// Batch is one unit of the vectorized pipeline: up to ExecContext.BatchSize
// rows handed between operators per NextBatch call. Batches are never
// empty — an operator with no more rows returns (nil, nil) instead.
type Batch struct {
	Rows []*Row
}

// Len is the number of rows in the batch (nil-tolerant).
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.Rows)
}

// Operator is a batch-at-a-time iterator (vectorized Volcano). NextBatch
// returns (nil, nil) when the stream is exhausted and never returns an
// empty batch. Implementations own their children: Open/Close cascade.
// Open and NextBatch receive the per-statement ExecContext, which carries
// cancellation, the batch size, runtime statistics, and the optional trace
// sink; a nil context is tolerated (tests, internal drivers).
type Operator interface {
	// Schema describes the tuples the operator produces.
	Schema() types.Schema
	// Open prepares the operator for iteration.
	Open(ec *ExecContext) error
	// NextBatch produces the next batch of rows, or (nil, nil) at end of
	// stream. Returned batches are owned by the caller; the producer must
	// not reuse the backing slice.
	NextBatch(ec *ExecContext) (*Batch, error)
	// Close releases resources.
	Close() error
}

// drain pulls every remaining batch of child, applying fn to each row in
// stream order — the shared inner loop of pipeline-breaking operators
// (sorts, grouping, join builds) and of the result collector.
func drain(ec *ExecContext, child Operator, fn func(*Row) error) error {
	for {
		b, err := child.NextBatch(ec)
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		for _, row := range b.Rows {
			if err := fn(row); err != nil {
				return err
			}
		}
	}
}

// sliceBatch emits the next at-most-n rows of a materialized row slice,
// advancing *pos — the shared NextBatch body of materializing operators.
func sliceBatch(rows []*Row, pos *int, n int) *Batch {
	if *pos >= len(rows) {
		return nil
	}
	end := *pos + n
	if end > len(rows) {
		end = len(rows)
	}
	out := rows[*pos:end:end]
	*pos = end
	return &Batch{Rows: out}
}

// ---- envelope helpers (nil-tolerant) ----

// envView returns a copy-on-write view of an envelope — one input row
// feeding several output rows; nil stays nil.
func envView(e *summary.Envelope) *summary.Envelope {
	if e == nil {
		return nil
	}
	return e.View()
}

// envCurate drops the annotations on none of the keep columns; empty
// results collapse to nil.
func envCurate(e *summary.Envelope, keep annotation.ColSet) *summary.Envelope {
	if e == nil {
		return nil
	}
	e.Curate(keep)
	if e.IsEmpty() {
		return nil
	}
	return e
}

// envRemap applies an operator's column map; empty results collapse to nil.
func envRemap(e *summary.Envelope, m *summary.ColMap) *summary.Envelope {
	if e == nil {
		return nil
	}
	e.RemapColumns(m)
	if e.IsEmpty() {
		return nil
	}
	return e
}

// envMerge merges right into left (owned, mutated) for a join with the
// given left width, tolerating nils. Merge only reads right — objects it
// adopts are shared copy-on-write inside the summary algebra — so callers
// may pass a shared right envelope (e.g. a hash-join build row matched by
// several probe rows) without a defensive copy.
func envMerge(left, right *summary.Envelope, leftWidth int) *summary.Envelope {
	if right == nil {
		return left
	}
	if left == nil {
		// Shift right coverage into the output shape via a merge into an
		// empty envelope.
		out := summary.NewEnvelope()
		out.Merge(right, leftWidth)
		return out
	}
	left.Merge(right, leftWidth)
	return left
}

// envGroup combines the envelopes of one output row (a group, a distinct
// survivor) into the first of them, in input order. The rest wait in
// pending and are combined in one pass when the input ends, or earlier
// once they hold combineBatch coverage entries and as many as the
// combined envelope: what waits stays under the larger of the two, plus
// one row, and since an early combine merges at least as many pending
// entries as combined ones, every entry is merged O(1) times amortized
// however the rows' ids interleave.
type envGroup struct {
	env     *summary.Envelope
	pending []*summary.Envelope
	entries int // coverage entries pending
}

// combineBatch is the pending coverage entries (16 B each) below which a
// group is not combined before its input ends.
const combineBatch = 4096

// add queues e (not nil) for combination.
func (g *envGroup) add(e *summary.Envelope) {
	if g.env == nil {
		g.env = e
		return
	}
	g.pending = append(g.pending, e)
	if g.entries += e.Len(); g.entries >= max(combineBatch, g.env.Len()) {
		g.combine()
	}
}

// combine combines what is pending and returns the group's envelope; a
// group that was never given one combines to nil.
func (g *envGroup) combine() *summary.Envelope {
	if len(g.pending) > 0 {
		g.env.Combine(g.pending...)
		clear(g.pending) // let the combined envelopes go
		g.pending, g.entries = g.pending[:0], 0
	}
	return g.env
}
