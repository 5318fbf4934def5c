// Cost-based access-path selection. For each base relation the planner
// compares the estimated cost of a full scan against the best index
// lookup or range scan a pushed-down predicate admits, using exact table
// statistics (the row count is maintained, not sampled) and
// capped B+tree "index dives" for match-count estimates — the classic
// System R recipe scaled down to the engine's two access-path families.
package plan

import (
	"insightnotes/internal/catalog"
	"insightnotes/internal/exec"
	"insightnotes/internal/sql"
	"insightnotes/internal/types"
)

// Cost-model constants, in units of one row of a full scan. A full scan
// walks the table's in-memory rows in order and evaluates the predicate on
// every one; an index lookup pays a B+tree descent, then per matching row
// the index entry, a row-id map lookup and the predicate. Fitted to E15
// (EXPERIMENTS.md, E32): a forced index range costs as much as the full
// scan at 30–40% of the table, so the index wins below a third of it.
const (
	costSeqRow  = 1.0 // per-row walk + predicate evaluation (full scan)
	costIdxSeek = 4.0 // B+tree descent to the first matching entry
	costIdxRow  = 3.0 // index entry + row lookup + predicate per matching row
)

// diveCap bounds the B+tree index dives used for match estimates: counting
// stops once the count alone proves the index more expensive than the
// sequential scan, so dives never walk more than a break-even prefix of
// the range (plus a small floor for tiny tables).
const diveCapFloor = 64

// seqScanCost is the cost of a full scan of a table.
func seqScanCost(st catalog.TableStats) float64 {
	return float64(st.Rows) * costSeqRow
}

// indexCost is the cost of resolving est matching rows through an index.
func indexCost(est int) float64 {
	return costIdxSeek + float64(est)*costIdxRow
}

// probeKeyLimit is the break-even of a hash join's keyed probe over a table
// (exec.HashJoin.KeyProbe): the most distinct join keys n for which
// indexCost's fixed descent plus a descent and a row per key, costIdxSeek +
// n·(costIdxSeek + costIdxRow), is no dearer than the full scan. About 70
// keys for 500 rows.
func probeKeyLimit(st catalog.TableStats) int {
	return max(0, int((seqScanCost(st)-costIdxSeek)/(costIdxSeek+costIdxRow)))
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
func bestIndexCandidate(tbl *catalog.Table, conjuncts []sql.Expr, limit int) *indexCandidate {
	var best *indexCandidate
	for _, e := range conjuncts {
		var c indexCandidate
		var capped, ok bool
		if col, val, isEq := constEquality(e); isEq {
			_, c.col = types.SplitQualified(col)
			c.val = val
			c.est, capped, ok = tbl.EstimateIndexEquality(c.col, val, limit)
		} else if rng, isRange := constRange(e); isRange {
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
// estimated cost undercuts the full scan, the full table otherwise.
// It returns the source with the planner's row estimate for it, and
// records the decision on the plan span under keys ending in suffix:
// "."+alias for a SELECT relation, "" for a mutating statement's match.
// The suffix also keys the relation's plan-cache memo entry.
func (p *Planner) chooseAccessPath(r *relation, local []sql.Expr, suffix string) (src exec.RowSource, est int) {
	sp := p.opts.Span
	if sp != nil {
		// Every return records the path: full_scan, index_scan or
		// index_range_scan, the values of access_paths_total{path}.
		defer func() { sp.Attr("path"+suffix, src.Path()+"_scan") }()
	}
	st := r.table.Stats()
	memo := p.opts.Memo
	if p.opts.DisableIndexScan {
		memo = nil
	}
	if ch, ok := memo.lookup(suffix); ok {
		if src, replayed := replayPath(local, ch); replayed {
			sp.Attr("path_memo"+suffix, ch.kind)
			if ch.kind == "full" {
				ch.est = st.Rows // the table's size is read, never memoized
			}
			return src, ch.est
		}
	}

	seq := seqScanCost(st)
	var best *indexCandidate
	if !p.opts.DisableIndexScan {
		best = bestIndexCandidate(r.table, local, diveLimit(seq))
	}

	if sp != nil {
		sp.AttrFloat("cost_seq"+suffix, seq)
		if best != nil {
			sp.AttrFloat("cost_index"+suffix, indexCost(best.est))
			sp.Attr("index_col"+suffix, best.col)
			sp.AttrInt("est_rows"+suffix, int64(best.est))
		}
	}
	if best != nil && indexCost(best.est) < seq {
		src = best.source()
		memo.record(suffix, pathChoice{kind: src.Path(), col: best.col, est: best.est})
		return src, best.est
	}
	memo.record(suffix, pathChoice{kind: "full"})
	return exec.FullTable(), st.Rows
}

// MatchSource picks the row source through which a mutating statement —
// UPDATE, DELETE or ADD ANNOTATION — reads the rows of tbl its WHERE
// clause may select, with the chooser SELECT uses, and compiles where
// against the table's schema (nil for a nil where: every row matches).
// Its names are bound as a SELECT's are. Of opts only DisableIndexScan
// and Span apply: no memo, no counters.
func MatchSource(tbl *catalog.Table, where sql.Expr, opts Options) (exec.RowSource, *exec.Compiled, error) {
	p := &Planner{opts: Options{DisableIndexScan: opts.DisableIndexScan, Span: opts.Span}}
	r := &relation{table: tbl, schema: tbl.Schema()}
	conj := exec.SplitConjuncts(where)
	if _, _, err := bind([]*relation{r}, nil, conj, nil); err != nil {
		return exec.RowSource{}, nil, err
	}
	src, _ := p.chooseAccessPath(r, conj, "")
	if where == nil {
		return src, nil, nil
	}
	pred, err := exec.Compile(where, tbl.Schema())
	return src, pred, err
}

// replayPath rebuilds a memoized row source, pulling probe values from
// the current (bound) predicates of its relation. It reports false when the recorded
// shape no longer matches the predicate set — the caller then falls back
// to full cost-based selection.
func replayPath(local []sql.Expr, ch pathChoice) (exec.RowSource, bool) {
	if ch.kind == "full" {
		return exec.FullTable(), true
	}
	for _, e := range local {
		switch ch.kind {
		case "index":
			if col, val, ok := constEquality(e); ok {
				if _, name := types.SplitQualified(col); name == ch.col {
					return exec.IndexEq(ch.col, val), true
				}
			}
		case "index_range":
			if rng, ok := constRange(e); ok {
				if _, name := types.SplitQualified(rng.col); name == ch.col {
					return exec.IndexRange(ch.col, rng.lo, rng.hi, rng.loInc, rng.hiInc), true
				}
			}
		}
	}
	return exec.RowSource{}, false
}
