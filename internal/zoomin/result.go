// Package zoomin implements the paper's zoom-in query processing (§2.2):
// query results receive QIDs and are materialized into a limited disk-based
// cache so that later ZOOMIN commands — which reference a QID, refine its
// tuples with predicates, and expand one summary element back into raw
// annotations — execute without re-running the query. Cache admission and
// eviction follow the paper's RCO policy (Recency, Complexity, Overhead);
// an LRU policy is provided as the benchmark baseline.
package zoomin

import (
	"encoding/json"
	"fmt"

	"insightnotes/internal/annotation"
	"insightnotes/internal/exec"
	"insightnotes/internal/types"
)

// CachedRow is one materialized result row: the data tuple plus the
// zoom-addressable structure of its summary objects — for every instance,
// the element labels and the raw-annotation ids behind each 1-based element
// index. The summary objects themselves are not serialized; this projection
// is exactly what zoom-in needs.
type CachedRow struct {
	Tuple types.Tuple                  `json:"tuple"`
	Zoom  map[string][][]annotation.ID `json:"zoom,omitempty"`
	Label map[string][]string          `json:"label,omitempty"`
	// Rendered carries the display form of each summary object; the wire
	// response of the SELECT is filled from it and from Label.
	Rendered map[string]string `json:"rendered,omitempty"`
}

// CachedResult is one materialized query result.
type CachedResult struct {
	QID        int            `json:"qid"`
	SQL        string         `json:"sql"`
	Columns    []types.Column `json:"columns"`
	Rows       []CachedRow    `json:"rows"`
	Complexity float64        `json:"complexity"`
}

// Schema reconstructs the result schema.
func (r *CachedResult) Schema() types.Schema { return types.Schema{Columns: r.Columns} }

// BuildCachedResult projects executor rows into the cacheable zoom form.
// complexity is the planner's cost proxy for the query (used by RCO).
func BuildCachedResult(qid int, sqlText string, schema types.Schema,
	rows []*exec.Row, complexity float64) *CachedResult {
	out := &CachedResult{
		QID:        qid,
		SQL:        sqlText,
		Columns:    schema.Columns,
		Complexity: complexity,
	}
	for _, row := range rows {
		cr := CachedRow{Tuple: row.Tuple}
		if row.Env != nil && !row.Env.IsEmpty() {
			cr.Zoom = map[string][][]annotation.ID{}
			cr.Label = map[string][]string{}
			cr.Rendered = map[string]string{}
			for _, name := range row.Env.InstanceNames() {
				obj := row.Env.Object(name)
				els := obj.Elements()
				labels := make([]string, len(els))
				elems := make([][]annotation.ID, len(els))
				for i, el := range els {
					labels[i], elems[i] = el.Label, el.IDs
				}
				cr.Zoom[name] = elems
				cr.Label[name] = labels
				cr.Rendered[name] = obj.Render()
			}
		}
		out.Rows = append(out.Rows, cr)
	}
	return out
}

// encode serializes a result for the disk cache.
func (r *CachedResult) encode() ([]byte, error) { return json.Marshal(r) }

// decodeResult parses a serialized result.
func decodeResult(data []byte) (*CachedResult, error) {
	var r CachedResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("zoomin: corrupt cached result: %w", err)
	}
	return &r, nil
}

// FilterRows returns the cached rows satisfying pred (nil = all), compiled
// against the result schema — the ZOOMIN WHERE refinement.
func (r *CachedResult) FilterRows(pred *exec.Compiled) ([]CachedRow, error) {
	if pred == nil {
		return r.Rows, nil
	}
	var out []CachedRow
	for _, row := range r.Rows {
		v, err := pred.Eval(row.Tuple)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			out = append(out, row)
		}
	}
	return out, nil
}

// ZoomIDs resolves the annotation ids behind element index (1-based) of the
// named instance on one cached row. Rows without that instance return nil.
func (row *CachedRow) ZoomIDs(instance string, index int) ([]annotation.ID, error) {
	elems, ok := row.Zoom[instance]
	if !ok {
		return nil, nil
	}
	if index < 1 || index > len(elems) {
		return nil, fmt.Errorf("zoomin: instance %q has no element %d (1..%d)", instance, index, len(elems))
	}
	return elems[index-1], nil
}
