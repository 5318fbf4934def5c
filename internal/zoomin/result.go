// Package zoomin implements the paper's zoom-in query processing (§2.2):
// query results receive QIDs and are materialized into a limited disk-based
// cache so that later ZOOMIN commands — which reference a QID, refine its
// tuples with predicates, and expand one summary element back into raw
// annotations — execute without re-running the query. Cache admission and
// eviction follow the paper's RCO policy (Recency, Complexity, Overhead);
// an LRU policy is provided as the benchmark baseline.
package zoomin

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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

// CachedRow is one row of a materialized result: the data tuple and, in a
// decoded result, the zoom-addressable structure of its summary objects —
// per instance, the elements in 1-based index order, each with its label and
// the raw-annotation ids behind it. A result fresh from BuildCachedResult
// carries tuples only: its elements and rendered summaries live in its
// encoding, and a zoom-in reads them from the decoded form (Decoded).
type CachedRow struct {
	Tuple    types.Tuple
	Elements map[string][]summary.Element
}

// CachedResult is one materialized query result.
type CachedResult struct {
	QID        int
	SQL        string
	Columns    []types.Column
	Rows       []CachedRow
	Complexity float64

	// enc is the spill entry BuildCachedResult encoded; nil for a result
	// assembled field by field or decoded.
	enc []byte
	// rows is the encoded rows section (inside enc, or inside the bytes
	// the result was decoded from).
	rows []byte
}

// Schema reconstructs the result schema.
func (r *CachedResult) Schema() types.Schema { return types.Schema{Columns: r.Columns} }

// shownObject is one summary object as an entry shows it: its instance
// name, rendered text and zoomable elements.
type shownObject struct {
	name  string
	text  string
	elems []summary.Element
}

// BuildCachedResult encodes executor rows as a spill entry, once, into one
// exactly sized buffer. It asks each summary object for its rendering and
// its elements once (a shared object answers from its memo), sizes the
// entry from them, then writes the header, the rows section and the zoom
// section. complexity is the planner's cost proxy for the query (used by
// RCO).
func BuildCachedResult(qid int, sqlText string, schema types.Schema,
	rows []*exec.Row, complexity float64) *CachedResult {
	out := &CachedResult{
		QID:        qid,
		SQL:        sqlText,
		Columns:    schema.Columns,
		Rows:       make([]CachedRow, len(rows)),
		Complexity: complexity,
	}
	var shown []shownObject
	ends := make([]int, len(rows)) // row i shows shown[ends[i-1]:ends[i]]
	// Each section: its 4-byte length and the row count.
	size := out.headerSize() + 2*(4+uvarintLen(uint64(len(rows))))
	for i, row := range rows {
		out.Rows[i].Tuple = row.Tuple
		size += types.EncodedSize(row.Tuple)
		from := len(shown)
		if row.Env != nil && !row.Env.IsEmpty() {
			for _, name := range row.Env.InstanceNames() {
				obj := row.Env.Object(name)
				s := shownObject{name, obj.Render(), obj.Elements()}
				shown = append(shown, s)
				size += strLen(name) + strLen(s.text) + elementsSize(name, s.elems)
			}
		}
		ends[i] = len(shown)
		size += 2 * uvarintLen(uint64(len(shown)-from)) // the row's instance count, in each section
	}

	w := codec.NewWriter(make([]byte, 0, size))
	out.appendHeader(w)
	mark := w.BeginSection()
	w.Uvarint(uint64(len(rows)))
	from := 0
	for i, row := range rows {
		w.Tuple(row.Tuple)
		w.Uvarint(uint64(ends[i] - from))
		for _, s := range shown[from:ends[i]] {
			w.Str(s.name)
			w.Str(s.text)
		}
		from = ends[i]
	}
	w.EndSection(mark)
	end := w.Len()
	zoom := w.BeginSection()
	w.Uvarint(uint64(len(rows)))
	from = 0
	for i := range rows {
		w.Uvarint(uint64(ends[i] - from))
		for _, s := range shown[from:ends[i]] {
			appendElements(w, s.name, s.elems)
		}
		from = ends[i]
	}
	w.EndSection(zoom)
	out.enc = w.Bytes()
	out.rows = out.enc[mark:end:end]
	return out
}

// AppendRows appends rows as a rows section body (see entryVersion): the
// wire form of a result that was never materialized.
func AppendRows(w *codec.Writer, rows []*exec.Row) {
	w.Uvarint(uint64(len(rows)))
	for _, row := range rows {
		w.Tuple(row.Tuple)
		if row.Env == nil || row.Env.IsEmpty() {
			w.Uvarint(0)
			continue
		}
		names := row.Env.InstanceNames()
		w.Uvarint(uint64(len(names)))
		for _, name := range names {
			w.Str(name)
			w.Str(row.Env.Object(name).Render())
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

// elementsSize is the number of bytes appendElements writes.
func elementsSize(name string, els []summary.Element) int {
	n := strLen(name) + uvarintLen(uint64(len(els)))
	for _, el := range els {
		n += strLen(el.Label) + uvarintLen(uint64(len(el.IDs)))
		for _, id := range el.IDs {
			n += uvarintLen(uint64(id))
		}
	}
	return n
}

// headerSize is the number of bytes appendHeader writes.
func (r *CachedResult) headerSize() int {
	var qid [binary.MaxVarintLen64]byte
	n := 1 + binary.PutVarint(qid[:], int64(r.QID)) + strLen(r.SQL) + uvarintLen(uint64(len(r.Columns)))
	for _, c := range r.Columns {
		n += strLen(c.Table) + strLen(c.Name) + 1
	}
	return n
}

// uvarintLen is the encoded length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// strLen is the encoded length of a string.
func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

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
// for a result decoded or assembled field by field, an encoding of its
// fields.
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
	for _, row := range r.Rows {
		names := make([]string, 0, len(row.Elements))
		for name := range row.Elements {
			names = append(names, name)
		}
		slices.Sort(names)
		w.Uvarint(uint64(len(names)))
		for _, name := range names {
			appendElements(w, name, row.Elements[name])
		}
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

// Decoded returns r as Cache.Get returns it: decoded from its spill entry,
// zoom elements included. A zoom-in that re-executed its query reads the
// fresh result through it, so every zoom-in reads one form.
func (r *CachedResult) Decoded() (*CachedResult, error) { return decodeResult(r.encode()) }

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
	els, ok := row.Elements[instance]
	if !ok {
		return nil, nil
	}
	if index < 1 || index > len(els) {
		return nil, fmt.Errorf("zoomin: instance %q has no element %d (1..%d)", instance, index, len(els))
	}
	return els[index-1].IDs, nil
}
