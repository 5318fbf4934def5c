// Package zoomin implements the paper's zoom-in query processing (§2.2):
// query results receive QIDs and are kept in a limited cache so that later
// ZOOMIN commands — which reference a QID, refine its tuples with
// predicates, and expand one summary element back into raw annotations —
// execute without re-running the query. A result is kept as the executor
// produced it (live) while it is in memory. Only a result some zoom-in has
// referenced is encoded into the disk spill when it leaves memory; any
// other result is re-executed if a zoom-in ever asks for it. Replacement
// follows the paper's RCO policy (Recency, Complexity, Overhead); an LRU
// policy is provided as the benchmark baseline.
package zoomin

import (
	"fmt"
	"slices"

	"insightnotes/internal/annotation"
	"insightnotes/internal/codec"
	"insightnotes/internal/exec"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// A spill entry is one result in the codec's encoding:
//
//	byte     entryVersion
//	varint   QID
//	str      SQL
//	uvarint  column count; per column: str table, str name, byte kind
//	section  rows: uvarint row count; per row: tuple, uvarint instance
//	         count, then (str instance, str rendered summary) pairs in
//	         instance-name order
//	section  zoom: uvarint row count; per row: uvarint instance count; per
//	         instance in name order: str instance, uvarint element count;
//	         per element: str label, uvarint id count, uvarint ids
//
// The rows section is also the rows of a SELECT's wire response: both are
// written by AppendRows, and the client decodes them with ReadRow.
// Complexity is cache bookkeeping and is not encoded.
const entryVersion = 1

// liveOverhead is what a live entry counts beyond its SQL text and rows,
// so that even an empty result has a cost against the budget.
const liveOverhead = 64

// LiveResult is a query result as the executor produced it. The cache holds
// it by reference: stored tuples are immutable and envelopes copy on write,
// so later writes to the rows it came from change neither, and a zoom-in
// sees the result as the query returned it. Nobody may change Rows.
type LiveResult struct {
	QID        int
	SQL        string
	Columns    []types.Column
	Rows       []*exec.Row
	Complexity float64 // the planner's cost proxy for the query (used by RCO)
}

// Schema reconstructs the result schema.
func (r *LiveResult) Schema() types.Schema { return types.Schema{Columns: r.Columns} }

// size is what the live entry counts against the budget: the tuples'
// encoded size plus the envelopes' in-memory estimate.
func (r *LiveResult) size() int64 {
	n := liveOverhead + len(r.SQL)
	for _, row := range r.Rows {
		n += types.EncodedSize(row.Tuple)
		if row.Env != nil {
			n += row.Env.ApproxBytes()
		}
	}
	return int64(n)
}

func (r *LiveResult) rowCount() int           { return len(r.Rows) }
func (r *LiveResult) tuple(i int) types.Tuple { return r.Rows[i].Tuple }

func (r *LiveResult) elements(i int, instance string) ([]summary.Element, bool) {
	env := r.Rows[i].Env
	if env == nil || env.IsEmpty() {
		return nil, false
	}
	obj := env.Object(instance)
	if obj == nil {
		return nil, false
	}
	return obj.Elements(), true
}

// CachedRow is one row of a spilled result, decoded: the data tuple and the
// zoom-addressable structure of its summary objects — per instance, the
// elements in 1-based index order, each with its label and the
// raw-annotation ids behind it.
type CachedRow struct {
	Tuple    types.Tuple
	Elements map[string][]summary.Element
}

// CachedResult is one spilled result, decoded from its spill entry.
type CachedResult struct {
	QID     int
	SQL     string
	Columns []types.Column
	Rows    []CachedRow
}

// Schema reconstructs the result schema.
func (r *CachedResult) Schema() types.Schema { return types.Schema{Columns: r.Columns} }

func (r *CachedResult) rowCount() int           { return len(r.Rows) }
func (r *CachedResult) tuple(i int) types.Tuple { return r.Rows[i].Tuple }

func (r *CachedResult) elements(i int, instance string) ([]summary.Element, bool) {
	els, ok := r.Rows[i].Elements[instance]
	return els, ok
}

// Zoomable is a result as a zoom-in reads it, in either of the cache's
// forms: a *LiveResult, or a spilled entry decoded (*CachedResult).
type Zoomable interface {
	Schema() types.Schema
	rowCount() int
	tuple(i int) types.Tuple
	// elements returns row i's elements of the named instance; ok is false
	// when the row carries no such summary object.
	elements(i int, instance string) (els []summary.Element, ok bool)
}

// Expansion is one row a zoom-in expanded: its tuple and the raw-annotation
// ids behind the addressed element.
type Expansion struct {
	Tuple types.Tuple
	IDs   []annotation.ID
}

// Expand runs a ZOOMIN over r: it keeps the rows satisfying pred (nil keeps
// all; compiled against r's schema) and resolves element index (1-based) of
// the named instance on each. Rows without that instance, and elements with
// no ids, yield nothing. The ids are read-only.
func Expand(r Zoomable, pred *exec.Compiled, instance string, index int) ([]Expansion, error) {
	var out []Expansion
	for i := 0; i < r.rowCount(); i++ {
		t := r.tuple(i)
		if pred != nil {
			v, err := pred.Eval(t)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		els, ok := r.elements(i, instance)
		if !ok {
			continue
		}
		if index < 1 || index > len(els) {
			return nil, fmt.Errorf("zoomin: instance %q has no element %d (1..%d)", instance, index, len(els))
		}
		if ids := els[index-1].IDs; len(ids) > 0 {
			out = append(out, Expansion{Tuple: t, IDs: ids})
		}
	}
	return out, nil
}

// BuildCachedResult encodes a live result as its spill entry. Each summary
// object is asked for its rendering and its elements once; a shared object
// answers from its memo.
func BuildCachedResult(r *LiveResult) []byte {
	w := codec.NewWriter(nil)
	w.Byte(entryVersion)
	w.Varint(int64(r.QID))
	w.Str(r.SQL)
	w.Uvarint(uint64(len(r.Columns)))
	for _, c := range r.Columns {
		w.Str(c.Table)
		w.Str(c.Name)
		w.Byte(byte(c.Kind))
	}
	mark := w.BeginSection()
	AppendRows(w, r.Rows)
	w.EndSection(mark)
	mark = w.BeginSection()
	w.Uvarint(uint64(len(r.Rows)))
	for _, row := range r.Rows {
		if row.Env == nil || row.Env.IsEmpty() {
			w.Uvarint(0)
			continue
		}
		w.Uvarint(uint64(row.Env.NumObjects()))
		for i := range row.Env.NumObjects() {
			name, obj := row.Env.ObjectAt(i)
			appendElements(w, name, obj.Elements())
		}
	}
	w.EndSection(mark)
	return w.Bytes()
}

// AppendRows appends rows as a rows section body (see entryVersion): what a
// SELECT's response carries, and the rows section of the result's spill
// entry. A shared object's rendering is its memo, copied into w once. Any
// other object renders into a scratch buffer that the rows reuse, which is
// then copied into w: no string is built for it.
func AppendRows(w *codec.Writer, rows []*exec.Row) {
	w.Uvarint(uint64(len(rows)))
	var scratch []byte
	for _, row := range rows {
		w.Tuple(row.Tuple)
		if row.Env == nil || row.Env.IsEmpty() {
			w.Uvarint(0)
			continue
		}
		w.Uvarint(uint64(row.Env.NumObjects()))
		for i := range row.Env.NumObjects() {
			name, obj := row.Env.ObjectAt(i)
			w.Str(name)
			if summary.RendersOnce(obj) {
				w.Str(obj.Render())
				continue
			}
			scratch = summary.AppendRender(scratch[:0], obj)
			w.Uvarint(uint64(len(scratch)))
			w.Raw(scratch)
		}
	}
}

// appendElements appends one instance of a zoom section row: its name and
// its elements.
func appendElements(w *codec.Writer, name string, els []summary.Element) {
	w.Str(name)
	w.Uvarint(uint64(len(els)))
	for _, el := range els {
		w.Str(el.Label)
		w.Uvarint(uint64(len(el.IDs)))
		for _, id := range el.IDs {
			w.Uvarint(uint64(id))
		}
	}
}

// decodeResult parses a spill entry. Rendered summaries are skipped: a
// zoom-in reads tuples and elements only.
func decodeResult(data []byte) (*CachedResult, error) {
	r := codec.NewReader(data)
	if v := r.Byte(); v != entryVersion && r.Err() == nil {
		r.Fail(fmt.Errorf("%w: spill entry version %d", codec.ErrCorrupt, v))
	}
	out := &CachedResult{QID: r.Int(), SQL: r.Str()}
	if n := r.Count(3); n > 0 {
		out.Columns = make([]types.Column, n)
		for i := range out.Columns {
			out.Columns[i] = types.Column{Table: r.Str(), Name: r.Str(), Kind: types.Kind(r.Byte())}
		}
	}
	rows := r.Section()
	zoom := r.Section()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("zoomin: corrupt cached result: %w", err)
	}

	rr := codec.NewReader(rows)
	out.Rows = make([]CachedRow, rr.Count(2))
	for i := range out.Rows {
		out.Rows[i].Tuple = rr.Tuple()
		for n := rr.Count(2); n > 0; n-- {
			rr.SkipStr()
			rr.SkipStr()
		}
	}
	zr := codec.NewReader(zoom)
	if n := zr.Count(1); n != len(out.Rows) && zr.Err() == nil {
		zr.Fail(fmt.Errorf("%w: %d zoom rows for %d rows", codec.ErrCorrupt, n, len(out.Rows)))
	}
	for i := range out.Rows {
		readZoomRow(zr, &out.Rows[i])
	}
	if err := rr.Done(); err != nil {
		return nil, fmt.Errorf("zoomin: corrupt cached rows: %w", err)
	}
	if err := zr.Done(); err != nil {
		return nil, fmt.Errorf("zoomin: corrupt cached zoom section: %w", err)
	}
	return out, nil
}

func readZoomRow(r *codec.Reader, row *CachedRow) {
	n := r.Count(2)
	if n == 0 {
		return
	}
	row.Elements = make(map[string][]summary.Element, n)
	for ; n > 0; n-- {
		name := r.Str()
		els := make([]summary.Element, r.Count(2))
		for j := range els {
			els[j].Label = r.Str()
			if k := r.Count(1); k > 0 {
				els[j].IDs = make([]annotation.ID, k)
				for m := range els[j].IDs {
					els[j].IDs[m] = annotation.ID(r.Uvarint())
				}
			}
		}
		row.Elements[name] = els
	}
}

// AppendRow appends one row of a rows section from its decoded form, the
// inverse of ReadRow.
func AppendRow(w *codec.Writer, t types.Tuple, summaries map[string]string) {
	w.Tuple(t)
	names := make([]string, 0, len(summaries))
	for name := range summaries {
		names = append(names, name)
	}
	slices.Sort(names)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		w.Str(name)
		w.Str(summaries[name])
	}
}

// ReadRow decodes one row of a rows section: the tuple and the rendered
// summaries by instance name (nil when the row carries none).
func ReadRow(r *codec.Reader) (types.Tuple, map[string]string) {
	t := r.Tuple()
	n := r.Count(2)
	if n == 0 {
		return t, nil
	}
	m := make(map[string]string, n)
	for ; n > 0; n-- {
		name := r.Str()
		m[name] = r.Str()
	}
	return t, m
}
