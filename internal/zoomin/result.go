// Package zoomin implements the paper's zoom-in query processing (§2.2):
// query results receive QIDs and are materialized into a limited disk-based
// cache so that later ZOOMIN commands — which reference a QID, refine its
// tuples with predicates, and expand one summary element back into raw
// annotations — execute without re-running the query. Cache admission and
// eviction follow the paper's RCO policy (Recency, Complexity, Overhead);
// an LRU policy is provided as the benchmark baseline.
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

// A spill entry is one materialized result in the codec's encoding:
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
// The rows section is also the rows of a SELECT's wire response: the
// server copies it into the response frame as is, and the client decodes it
// with ReadRow. Complexity is cache bookkeeping and is not encoded.
const entryVersion = 1

// CachedRow is one materialized result row: the data tuple plus the
// zoom-addressable structure of its summary objects — for every instance,
// the element labels and the raw-annotation ids behind each 1-based element
// index. The rendered summaries live only in the encoded rows section.
type CachedRow struct {
	Tuple types.Tuple
	Zoom  map[string][][]annotation.ID
	Label map[string][]string
}

// CachedResult is one materialized query result.
type CachedResult struct {
	QID        int
	SQL        string
	Columns    []types.Column
	Rows       []CachedRow
	Complexity float64

	// enc is the spill entry BuildCachedResult encoded; nil for a result
	// assembled field by field.
	enc []byte
	// rows is the encoded rows section (inside enc, or inside the bytes
	// the result was decoded from).
	rows []byte
}

// Schema reconstructs the result schema.
func (r *CachedResult) Schema() types.Schema { return types.Schema{Columns: r.Columns} }

// BuildCachedResult encodes executor rows as a spill entry, once, and
// projects them into the zoom form. complexity is the planner's cost proxy
// for the query (used by RCO).
func BuildCachedResult(qid int, sqlText string, schema types.Schema,
	rows []*exec.Row, complexity float64) *CachedResult {
	out := &CachedResult{
		QID:        qid,
		SQL:        sqlText,
		Columns:    schema.Columns,
		Rows:       make([]CachedRow, len(rows)),
		Complexity: complexity,
	}
	w := codec.NewWriter(make([]byte, 0, 512))
	out.appendHeader(w)
	mark := w.BeginSection()
	w.Uvarint(uint64(len(rows)))
	var zoom codec.Writer
	zoom.Uvarint(uint64(len(rows)))
	for i, row := range rows {
		names := appendRow(w, row)
		out.Rows[i] = zoomRow(row, names)
		appendZoomRow(&zoom, &out.Rows[i], names)
	}
	w.EndSection(mark)
	end := w.Len()
	w.Section(zoom.Bytes())
	out.enc = w.Bytes()
	out.rows = out.enc[mark:end:end]
	return out
}

// AppendRows appends rows as a rows section body (see entryVersion): the
// wire form of a result that was never materialized.
func AppendRows(w *codec.Writer, rows []*exec.Row) {
	w.Uvarint(uint64(len(rows)))
	for _, row := range rows {
		appendRow(w, row)
	}
}

// appendRow appends one row of the rows section and returns the instance
// names it wrote, in order (nil for a row without summaries).
func appendRow(w *codec.Writer, row *exec.Row) []string {
	w.Tuple(row.Tuple)
	if row.Env == nil || row.Env.IsEmpty() {
		w.Uvarint(0)
		return nil
	}
	names := row.Env.InstanceNames()
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		w.Str(name)
		w.Str(row.Env.Object(name).Render())
	}
	return names
}

// zoomRow projects row's summary objects into the zoom form.
func zoomRow(row *exec.Row, names []string) CachedRow {
	cr := CachedRow{Tuple: row.Tuple}
	if len(names) == 0 {
		return cr
	}
	cr.Zoom = make(map[string][][]annotation.ID, len(names))
	cr.Label = make(map[string][]string, len(names))
	for _, name := range names {
		cr.Label[name], cr.Zoom[name] = elements(row.Env.Object(name))
	}
	return cr
}

func elements(obj summary.Object) ([]string, [][]annotation.ID) {
	els := obj.Elements()
	labels := make([]string, len(els))
	ids := make([][]annotation.ID, len(els))
	for i, el := range els {
		labels[i], ids[i] = el.Label, el.IDs
	}
	return labels, ids
}

// appendZoomRow appends one row of the zoom section, instances in the
// given order.
func appendZoomRow(w *codec.Writer, row *CachedRow, names []string) {
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		w.Str(name)
		elems, labels := row.Zoom[name], row.Label[name]
		w.Uvarint(uint64(len(elems)))
		for j, ids := range elems {
			label := ""
			if j < len(labels) {
				label = labels[j]
			}
			w.Str(label)
			w.Uvarint(uint64(len(ids)))
			for _, id := range ids {
				w.Uvarint(uint64(id))
			}
		}
	}
}

func (r *CachedResult) appendHeader(w *codec.Writer) {
	w.Byte(entryVersion)
	w.Varint(int64(r.QID))
	w.Str(r.SQL)
	w.Uvarint(uint64(len(r.Columns)))
	for _, c := range r.Columns {
		w.Str(c.Table)
		w.Str(c.Name)
		w.Byte(byte(c.Kind))
	}
}

// RowsSection returns the encoded rows section (see entryVersion): what a
// SELECT's response carries as its rows.
func (r *CachedResult) RowsSection() []byte {
	if r.rows != nil {
		return r.rows
	}
	w := codec.NewWriter(nil)
	r.appendRows(w)
	return w.Bytes()
}

// appendRows appends the rows section body of a result assembled field by
// field: its tuples, with no rendered summaries.
func (r *CachedResult) appendRows(w *codec.Writer) {
	w.Uvarint(uint64(len(r.Rows)))
	for i := range r.Rows {
		w.Tuple(r.Rows[i].Tuple)
		w.Uvarint(0)
	}
}

// encode returns r's spill entry: the bytes BuildCachedResult produced, or
// for a result assembled field by field, an encoding of its fields.
func (r *CachedResult) encode() []byte {
	if r.enc != nil {
		return r.enc
	}
	w := codec.NewWriter(make([]byte, 0, 256+len(r.SQL)+len(r.rows)))
	r.appendHeader(w)
	mark := w.BeginSection()
	if r.rows != nil {
		w.Raw(r.rows)
	} else {
		r.appendRows(w)
	}
	w.EndSection(mark)
	mark = w.BeginSection()
	w.Uvarint(uint64(len(r.Rows)))
	for i := range r.Rows {
		names := make([]string, 0, len(r.Rows[i].Zoom))
		for name := range r.Rows[i].Zoom {
			names = append(names, name)
		}
		slices.Sort(names)
		appendZoomRow(w, &r.Rows[i], names)
	}
	w.EndSection(mark)
	return w.Bytes()
}

// decodeResult parses a spill entry. The result's rows section aliases
// data.
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
	out.rows = r.Section()
	zoom := r.Section()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("zoomin: corrupt cached result: %w", err)
	}

	rr := codec.NewReader(out.rows)
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
	row.Zoom = make(map[string][][]annotation.ID, n)
	row.Label = make(map[string][]string, n)
	for ; n > 0; n-- {
		name := r.Str()
		elems := make([][]annotation.ID, r.Count(2))
		labels := make([]string, len(elems))
		for j := range elems {
			labels[j] = r.Str()
			if k := r.Count(1); k > 0 {
				elems[j] = make([]annotation.ID, k)
				for m := range elems[j] {
					elems[j][m] = annotation.ID(r.Uvarint())
				}
			}
		}
		row.Zoom[name], row.Label[name] = elems, labels
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
