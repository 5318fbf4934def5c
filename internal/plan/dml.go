// Access-path selection for mutating statements. UPDATE and DELETE match
// rows outside the full query planner (they need row ids, not batches),
// but their scan-vs-index decision reuses the same cost model and
// predicate extraction as SELECT so the two paths cannot drift apart.
package plan

import (
	"insightnotes/internal/catalog"
	"insightnotes/internal/exec"
	"insightnotes/internal/sql"
	"insightnotes/internal/types"
)

// DMLPath is the access path chosen for an UPDATE or DELETE row match.
// When Name is "full_scan" the caller scans the heap; otherwise it fetches
// candidate row ids through the named index column and re-evaluates the
// full predicate per candidate.
type DMLPath struct {
	// Name is the access-path family: "full_scan", "index_scan", or
	// "index_range_scan".
	Name string
	// Col is the unqualified indexed column (index paths only).
	Col string
	// Est is the dive-based estimate of matching rows (index paths only).
	Est int
	// CostSeq and CostIndex are the compared cost-model estimates; CostIndex
	// is zero when no index candidate was eligible.
	CostSeq   float64
	CostIndex float64
	// Equality candidates carry Val; range candidates carry the bounds.
	IsRange      bool
	Val          types.Value
	Lo, Hi       *types.Value
	LoInc, HiInc bool
}

// ChooseDMLPath picks the access path for a mutating statement's WHERE
// clause against tbl, using the same conjunct extraction, index-dive
// estimates, and cost constants as the query planner's chooseAccessPath.
// disableIndex forces the full scan (mirrors Options.DisableIndexScan).
func ChooseDMLPath(tbl *catalog.Table, where sql.Expr, disableIndex bool) DMLPath {
	st := tbl.Stats()
	seq := seqScanCost(st)
	path := DMLPath{Name: "full_scan", CostSeq: seq}
	if disableIndex || where == nil {
		return path
	}

	best := bestIndexCandidate(tbl, tbl.Schema(), exec.SplitConjuncts(where), diveLimit(seq))
	if best == nil || indexCost(best.est) >= seq {
		if best != nil {
			path.CostIndex = indexCost(best.est)
		}
		return path
	}
	path.Col = best.col
	path.Est = best.est
	path.CostIndex = indexCost(best.est)
	if best.isRange {
		path.Name = "index_range_scan"
		path.IsRange = true
		path.Lo, path.Hi = best.rng.lo, best.rng.hi
		path.LoInc, path.HiInc = best.rng.loInc, best.rng.hiInc
	} else {
		path.Name = "index_scan"
		path.Val = best.val
	}
	return path
}
