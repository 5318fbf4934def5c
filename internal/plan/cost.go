// Cost-based access-path selection. For each base relation the planner
// compares the estimated cost of a sequential heap scan against the best
// index lookup or range scan a pushed-down predicate admits, using exact
// table statistics (row and page counts are maintained, not sampled) and
// capped B+tree "index dives" for match-count estimates — the classic
// System R recipe scaled down to the engine's two access-path families.
package plan

import (
	"strings"

	"insightnotes/internal/catalog"
	"insightnotes/internal/exec"
	"insightnotes/internal/sql"
	"insightnotes/internal/types"
)

// Cost-model constants, in abstract units of one sequential page read.
// The absolute values are meaningless; the ratios encode the two physical
// facts the choice hinges on: a heap scan touches every page once but
// amortizes per-row work, while an index lookup pays a B+tree descent and
// then one random page fetch per matching row.
const (
	costSeqPage = 1.0   // sequential page read (full scan)
	costSeqRow  = 0.005 // per-row decode + predicate evaluation
	costIdxSeek = 1.0   // B+tree descent to the first matching entry
	costIdxRow  = 2.0   // random heap fetch + decode per matching row
)

// diveCap bounds the B+tree index dives used for match estimates: counting
// stops once the count alone proves the index more expensive than the
// sequential scan, so dives never walk more than a break-even prefix of
// the range (plus a small floor for tiny tables).
const diveCapFloor = 64

// seqScanCost is the cost of a full heap scan of a table.
func seqScanCost(st catalog.TableStats) float64 {
	return float64(st.Pages)*costSeqPage + float64(st.Rows)*costSeqRow
}

// indexCost is the cost of resolving est matching rows through an index.
func indexCost(est int) float64 {
	return costIdxSeek + float64(est)*costIdxRow
}

// diveLimit is the index-dive cap for a table: one entry past the count at
// which the index is guaranteed to lose to the sequential scan.
func diveLimit(seqCost float64) int {
	limit := int(seqCost/costIdxRow) + 1
	if limit < diveCapFloor {
		limit = diveCapFloor
	}
	return limit
}

// indexCandidate is one pushed-down predicate an index can serve, with its
// dive-based cardinality estimate.
type indexCandidate struct {
	col string // unqualified indexed column name
	est int
	// equality candidates carry val; range candidates carry rng.
	isRange bool
	val     types.Value
	rng     valueRange
}

// source is the row source that resolves the candidate.
func (c *indexCandidate) source() exec.RowSource {
	if c.isRange {
		return exec.IndexRange(c.col, c.rng.lo, c.rng.hi, c.rng.loInc, c.rng.hiInc)
	}
	return exec.IndexEq(c.col, c.val)
}

// bestIndexCandidate returns the conjunct of lowest estimated match count
// that an index of tbl can serve, or nil when there is none. Estimates are
// index dives capped at limit; a capped dive already proves the index
// loses, so its candidate is dropped.
func bestIndexCandidate(tbl *catalog.Table, schema types.Schema, conjuncts []sql.Expr, limit int) *indexCandidate {
	var best *indexCandidate
	for _, e := range conjuncts {
		var c indexCandidate
		var capped, ok bool
		if col, val, isEq := constEquality(e, schema); isEq {
			_, c.col = types.SplitQualified(col)
			c.val = val
			c.est, capped, ok = tbl.EstimateIndexEquality(c.col, val, limit)
		} else if rng, isRange := constRange(e, schema); isRange {
			_, c.col = types.SplitQualified(rng.col)
			c.isRange, c.rng = true, rng
			c.est, capped, ok = tbl.EstimateIndexRange(c.col, rng.lo, rng.hi, rng.loInc, rng.hiInc, limit)
		}
		if ok && !capped && (best == nil || c.est < best.est) {
			cc := c
			best = &cc
		}
	}
	return best
}

// chooseAccessPath picks the cheapest row source for relation r given its
// pushed-down local predicates: the best eligible index candidate when its
// estimated cost undercuts the sequential scan, the full heap otherwise.
// It returns the source with the planner's row estimate for it.
func (p *Planner) chooseAccessPath(r *relation, local []sql.Expr) (exec.RowSource, int) {
	alias := strings.ToLower(r.ref.EffectiveAlias())
	st := r.table.Stats()
	memo := p.opts.Memo
	if p.opts.DisableIndexScan {
		memo = nil
	}
	if ch, ok := memo.lookup(alias); ok {
		if src, replayed := replayPath(r, local, ch); replayed {
			p.opts.Span.Attr("path_memo."+alias, ch.kind)
			if ch.kind == "full" {
				ch.est = st.Rows // the heap's size is read, never memoized
			}
			return src, ch.est
		}
	}

	seq := seqScanCost(st)
	var best *indexCandidate
	if !p.opts.DisableIndexScan {
		best = bestIndexCandidate(r.table, r.schema, local, diveLimit(seq))
	}

	if sp := p.opts.Span; sp != nil {
		sp.AttrFloat("cost_seq."+alias, seq)
		if best != nil {
			sp.AttrFloat("cost_index."+alias, indexCost(best.est))
			sp.Attr("index_col."+alias, best.col)
			sp.AttrInt("est_rows."+alias, int64(best.est))
		}
	}
	if best != nil && indexCost(best.est) < seq {
		src := best.source()
		memo.record(alias, pathChoice{kind: src.Path(), col: best.col, est: best.est})
		return src, best.est
	}
	memo.record(alias, pathChoice{kind: "full"})
	return exec.FullHeap(), st.Rows
}

// replayPath rebuilds the memoized row source for r, pulling probe values
// from the current (bound) predicates. It reports false when the recorded
// shape no longer matches the predicate set — the caller then falls back
// to full cost-based selection.
func replayPath(r *relation, local []sql.Expr, ch pathChoice) (exec.RowSource, bool) {
	if ch.kind == "full" {
		return exec.FullHeap(), true
	}
	for _, e := range local {
		switch ch.kind {
		case "index":
			if col, val, ok := constEquality(e, r.schema); ok {
				if _, name := types.SplitQualified(col); name == ch.col {
					return exec.IndexEq(ch.col, val), true
				}
			}
		case "index_range":
			if rng, ok := constRange(e, r.schema); ok {
				if _, name := types.SplitQualified(rng.col); name == ch.col {
					return exec.IndexRange(ch.col, rng.lo, rng.hi, rng.loInc, rng.hiInc), true
				}
			}
		}
	}
	return exec.RowSource{}, false
}
