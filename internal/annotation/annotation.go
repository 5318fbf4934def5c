// Package annotation implements the raw-annotation store underneath the
// InsightNotes summary engine: free-text annotations (optionally carrying a
// large attached document) targeted at tuples or individual cells of user
// relations, persisted in heap pages with in-memory indexes for
// tuple-oriented retrieval.
//
// Raw annotations are written once at ingestion and read back only by
// zoom-in queries and summary (re)builds; all query-time processing happens
// on the summary objects (see internal/summary), which is the paper's
// central idea.
package annotation

import (
	"fmt"
	"math"
	"strings"

	"insightnotes/internal/storage"
	"insightnotes/internal/types"
)

// ID identifies an annotation. IDs are assigned sequentially by the store
// starting from 1 and never reused.
type ID uint64

// ColSet is a bitmask over a relation's column ordinals identifying which
// cells of a tuple an annotation covers. The engine supports relations of
// up to 64 columns, which comfortably covers the paper's use cases.
type ColSet uint64

// WholeRow returns the ColSet covering all n columns (an annotation on the
// entire tuple).
func WholeRow(n int) ColSet {
	if n >= 64 {
		return ^ColSet(0)
	}
	return ColSet(1)<<uint(n) - 1
}

// Col returns the ColSet covering only column ordinal i.
func Col(i int) ColSet { return ColSet(1) << uint(i) }

// Has reports whether column ordinal i is covered.
func (c ColSet) Has(i int) bool { return c&(ColSet(1)<<uint(i)) != 0 }

// Union returns the union of two column sets.
func (c ColSet) Union(o ColSet) ColSet { return c | o }

// Intersect returns the intersection of two column sets.
func (c ColSet) Intersect(o ColSet) ColSet { return c & o }

// Empty reports whether no column is covered.
func (c ColSet) Empty() bool { return c == 0 }

// Count returns the number of covered columns.
func (c ColSet) Count() int {
	n := 0
	for c != 0 {
		c &= c - 1
		n++
	}
	return n
}

// Remap builds the column set in a projected schema: bit j of the result is
// set iff bit keep[j] is set in c. Columns outside keep are dropped — this
// is the ColSet half of the paper's project-on-summary-objects operation.
func (c ColSet) Remap(keep []int) ColSet {
	var out ColSet
	for j, orig := range keep {
		if c.Has(orig) {
			out |= Col(j)
		}
	}
	return out
}

// Shift returns the column set offset by w ordinals — the right-hand input
// of a join sees its columns shifted past the left input's width.
func (c ColSet) Shift(w int) ColSet { return c << uint(w) }

// String renders the set as "{0,2,5}".
func (c ColSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i := 0; i < 64; i++ {
		if c.Has(i) {
			if !first {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", i)
			first = false
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Annotation is one raw annotation. Text is the free-text body; Document
// optionally carries a large attached article/file content with a Title
// (the "big text values and large documents" that Snippet summaries
// condense).
type Annotation struct {
	ID       ID
	Author   string
	Created  int64 // Unix seconds, supplied by the caller for determinism
	Text     string
	Title    string
	Document string
}

// HasDocument reports whether the annotation carries an attached document.
func (a Annotation) HasDocument() bool { return a.Document != "" }

// Preview returns a short display form of the annotation body for cluster
// representatives and logs.
func (a Annotation) Preview(max int) string {
	s := strings.TrimSpace(a.Text)
	if s == "" {
		s = strings.TrimSpace(a.Title)
	}
	if len(s) <= max {
		return s
	}
	cut := max
	for cut > 0 && s[cut-1] != ' ' {
		cut--
	}
	if cut == 0 {
		cut = max
	}
	return strings.TrimRight(s[:cut], " ") + "…"
}

// Target names the cells one attachment of an annotation covers: a row of
// a table and a set of its columns. One annotation may have many targets
// (the same annotation attached to several tuples — the case the
// AnnotationInvariant/DataInvariant optimization exploits).
type Target struct {
	Table   string
	Row     types.RowID
	Columns ColSet
}

// Ref is an annotation reference as seen from a tuple: which annotation,
// and which of the tuple's columns it covers.
type Ref struct {
	ID      ID
	Columns ColSet
}

// encodeAnnotation serializes an annotation as a storage tuple.
func encodeAnnotation(a Annotation) []byte {
	return types.EncodeTuple(nil, annotationTuple(a))
}

// annotationTuple is the tuple an annotation's record encodes.
func annotationTuple(a Annotation) types.Tuple {
	return types.Tuple{
		types.NewInt(int64(a.ID)),
		types.NewString(a.Author),
		types.NewInt(a.Created),
		types.NewString(a.Text),
		types.NewString(a.Title),
		types.NewString(a.Document),
	}
}

// CheckSize reports whether a's record fits on a heap page whatever id and
// timestamp are assigned to it later: both are sized at their widest
// encoding. Batch ingest checks every annotation before storing the first,
// so a batch is never half stored.
func CheckSize(a Annotation) error {
	a.ID, a.Created = 1<<63, math.MinInt64
	if n := types.EncodedSize(annotationTuple(a)); n > storage.MaxRecordSize {
		return fmt.Errorf("annotation: record of %d bytes exceeds the %d a page holds: %w",
			n, storage.MaxRecordSize, storage.ErrRecordTooLarge)
	}
	return nil
}

// decodeAnnotation parses a storage tuple back into an annotation.
func decodeAnnotation(data []byte) (Annotation, error) {
	t, _, err := types.DecodeTuple(data)
	if err != nil {
		return Annotation{}, err
	}
	if len(t) != 6 {
		return Annotation{}, fmt.Errorf("annotation: corrupt record of %d fields", len(t))
	}
	return Annotation{
		ID:       ID(t[0].Int()),
		Author:   t[1].Str(),
		Created:  t[2].Int(),
		Text:     t[3].Str(),
		Title:    t[4].Str(),
		Document: t[5].Str(),
	}, nil
}

// encodeTarget is the record form of one target. Targets are held in
// memory; only the record's length is kept, counted into RawBytes.
func encodeTarget(id ID, tg Target) []byte {
	t := types.Tuple{
		types.NewInt(int64(id)),
		types.NewString(tg.Table),
		types.NewInt(int64(tg.Row)),
		types.NewInt(int64(tg.Columns)),
	}
	return types.EncodeTuple(nil, t)
}
