package annotation

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"insightnotes/internal/storage"
	"insightnotes/internal/types"
)

func newTestStore() *Store {
	return NewStore(storage.NewBufferPool(storage.NewMemStore(), 64))
}

func TestColSetBasics(t *testing.T) {
	c := Col(0).Union(Col(3))
	if !c.Has(0) || !c.Has(3) || c.Has(1) {
		t.Errorf("ColSet = %v", c)
	}
	if c.Count() != 2 {
		t.Errorf("Count = %d", c.Count())
	}
	if got := c.String(); got != "{0,3}" {
		t.Errorf("String = %q", got)
	}
	if WholeRow(3) != Col(0).Union(Col(1)).Union(Col(2)) {
		t.Error("WholeRow(3) wrong")
	}
	if WholeRow(64) != ^ColSet(0) {
		t.Error("WholeRow(64) must saturate")
	}
	if !ColSet(0).Empty() || c.Empty() {
		t.Error("Empty misreported")
	}
	if c.Intersect(Col(3)) != Col(3) {
		t.Error("Intersect wrong")
	}
}

func TestColSetRemap(t *testing.T) {
	// Original columns {0,2,3}; keep columns [2, 0] in that order.
	c := Col(0).Union(Col(2)).Union(Col(3))
	got := c.Remap([]int{2, 0})
	// New ordinal 0 = old 2 (covered), new 1 = old 0 (covered).
	if got != Col(0).Union(Col(1)) {
		t.Errorf("Remap = %v", got)
	}
	// Annotation on only dropped columns vanishes.
	d := Col(1)
	if !d.Remap([]int{0, 2}).Empty() {
		t.Error("dropped-column annotation should remap to empty")
	}
}

func TestColSetRemapShiftProperty(t *testing.T) {
	f := func(bits uint16, w uint8) bool {
		c := ColSet(bits)
		s := c.Shift(int(w % 16))
		return s.Count() == c.Count() || int(w%16)+16 > 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnnotationPreview(t *testing.T) {
	a := Annotation{Text: "Large one having size beyond the usual range for this species"}
	p := a.Preview(20)
	if len(p) > 25 || !strings.HasSuffix(p, "…") {
		t.Errorf("Preview = %q", p)
	}
	short := Annotation{Text: "tiny"}
	if short.Preview(20) != "tiny" {
		t.Errorf("short Preview = %q", short.Preview(20))
	}
	doc := Annotation{Title: "Wikipedia: Swan Goose"}
	if doc.Preview(40) != "Wikipedia: Swan Goose" {
		t.Errorf("title fallback = %q", doc.Preview(40))
	}
}

func TestStoreAddGet(t *testing.T) {
	s := newTestStore()
	id, err := s.Add(
		Annotation{Author: "ornithologist", Created: 1430000000, Text: "found eating stonewort"},
		[]Target{{Table: "birds", Row: 1, Columns: WholeRow(3)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("first id = %d", id)
	}
	a, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != "found eating stonewort" || a.Author != "ornithologist" || a.ID != id {
		t.Errorf("Get = %+v", a)
	}
	if _, err := s.Get(99); err == nil {
		t.Error("Get(missing) succeeded")
	}
}

func TestStoreValidation(t *testing.T) {
	s := newTestStore()
	if _, err := s.Add(Annotation{Text: "x"}, nil); err == nil {
		t.Error("Add with no targets succeeded")
	}
	if _, err := s.Add(Annotation{Text: "x"}, []Target{{Table: "t", Row: 1}}); err == nil {
		t.Error("Add with empty column set succeeded")
	}
	if _, err := s.Add(Annotation{Text: "x"}, []Target{{Row: 1, Columns: Col(0)}}); err == nil {
		t.Error("Add with empty table succeeded")
	}
}

func TestStoreForTupleMergesCoverage(t *testing.T) {
	s := newTestStore()
	// One annotation attached twice to the same row on different columns.
	id, _ := s.Add(Annotation{Text: "conflicting values"}, []Target{
		{Table: "birds", Row: 5, Columns: Col(0)},
		{Table: "birds", Row: 5, Columns: Col(2)},
	})
	refs := s.ForTuple("birds", 5)
	if len(refs) != 1 {
		t.Fatalf("refs = %v", refs)
	}
	if refs[0].ID != id || refs[0].Columns != Col(0).Union(Col(2)) {
		t.Errorf("merged ref = %+v", refs[0])
	}
	if s.ForTuple("birds", 99) != nil {
		t.Error("unannotated row returned refs")
	}
}

func TestStoreMultiTupleAttachment(t *testing.T) {
	s := newTestStore()
	id, _ := s.Add(Annotation{Text: "shared provenance note"}, []Target{
		{Table: "birds", Row: 1, Columns: WholeRow(2)},
		{Table: "birds", Row: 2, Columns: WholeRow(2)},
		{Table: "obs", Row: 7, Columns: Col(1)},
	})
	want := []Target{
		{Table: "birds", Row: 1, Columns: WholeRow(2)},
		{Table: "birds", Row: 2, Columns: WholeRow(2)},
		{Table: "obs", Row: 7, Columns: Col(1)},
	}
	if got := s.TargetsOf(id); !reflect.DeepEqual(got, want) {
		t.Errorf("TargetsOf = %v, want %v", got, want)
	}
	if got := s.AnnotatedRows("birds"); len(got) != 2 {
		t.Errorf("AnnotatedRows = %v", got)
	}
}

func TestStoreRefsSortedByID(t *testing.T) {
	s := newTestStore()
	for i := 0; i < 20; i++ {
		s.Add(Annotation{Text: fmt.Sprintf("note %d", i)},
			[]Target{{Table: "t", Row: 1, Columns: Col(0)}})
	}
	refs := s.ForTuple("t", 1)
	for i := 1; i < len(refs); i++ {
		if refs[i-1].ID >= refs[i].ID {
			t.Fatal("refs not sorted by id")
		}
	}
}

// addTo attaches one fresh whole-row annotation to (table, row).
func addTo(t *testing.T, s *Store, table string, row types.RowID) ID {
	t.Helper()
	id, err := s.Add(
		Annotation{Text: fmt.Sprintf("note on %s/%d", table, row)},
		[]Target{{Table: table, Row: row, Columns: WholeRow(2)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestCountIndexCountsDistinctAnnotations: one annotation targeting the
// same row through several column sets counts once in the row's refs.
func TestCountIndexCountsDistinctAnnotations(t *testing.T) {
	s := newTestStore()
	if _, err := s.Add(Annotation{Text: "multi-target"}, []Target{
		{Table: "t", Row: 1, Columns: Col(0)},
		{Table: "t", Row: 1, Columns: Col(1)},
	}); err != nil {
		t.Fatal(err)
	}
	addTo(t, s, "t", 1)
	if got := len(s.ForTuple("t", 1)); got != 2 {
		t.Errorf("len(ForTuple) = %d, want 2 (distinct annotations, not refs)", got)
	}
	if got, want := s.AnnotatedRows("t"), []types.RowID{1}; !reflect.DeepEqual(got, want) {
		t.Errorf("AnnotatedRows = %v, want %v", got, want)
	}
}

// TestCountIndexTracksMutations drives a row's distinct-annotation count
// through Remove and DetachRow, the two retraction paths.
func TestCountIndexTracksMutations(t *testing.T) {
	s := newTestStore()
	a1 := addTo(t, s, "t", 1)
	addTo(t, s, "t", 1)
	addTo(t, s, "t", 2)

	if got := len(s.ForTuple("t", 1)); got != 2 {
		t.Fatalf("len(ForTuple(t, 1)) = %d, want 2", got)
	}
	if _, err := s.Remove(a1); err != nil {
		t.Fatal(err)
	}
	if got := len(s.ForTuple("t", 1)); got != 1 {
		t.Errorf("after Remove: len(ForTuple(t, 1)) = %d, want 1", got)
	}
	if got, want := s.AnnotatedRows("t"), []types.RowID{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("after Remove: AnnotatedRows = %v, want %v", got, want)
	}
	if _, _, err := s.DetachRow("t", 1); err != nil {
		t.Fatal(err)
	}
	if got := s.ForTuple("t", 1); got != nil {
		t.Errorf("after DetachRow: ForTuple(t, 1) = %v, want none", got)
	}
	if got, want := s.AnnotatedRows("t"), []types.RowID{2}; !reflect.DeepEqual(got, want) {
		t.Errorf("after DetachRow: AnnotatedRows = %v, want %v", got, want)
	}
}

func TestStoreRawBytesAndCount(t *testing.T) {
	s := newTestStore()
	s.Add(Annotation{Text: "12345", Document: strings.Repeat("d", 100), Title: "T"},
		[]Target{{Table: "t", Row: 1, Columns: Col(0)}})
	if s.Count() != 1 {
		t.Errorf("Count = %d", s.Count())
	}
	// RawBytes counts the full encoded records (annotation + targets), so
	// it must exceed the payload size but stay within a small overhead.
	if got := s.RawBytes(); got < 5+100+1 || got > 200 {
		t.Errorf("RawBytes = %d", got)
	}

	// Retraction and row detachment subtract exactly the records they
	// drop: RawBytes is always the encoded size of what survives.
	type stored struct {
		a       Annotation
		targets []Target
	}
	live := map[ID]*stored{}
	add := func(a Annotation, targets ...Target) ID {
		t.Helper()
		id, err := s.Add(a, targets)
		if err != nil {
			t.Fatal(err)
		}
		a.ID = id
		live[id] = &stored{a, targets}
		return id
	}
	check := func(when string) {
		t.Helper()
		var want int64
		for id, st := range live {
			want += int64(len(encodeAnnotation(st.a)))
			for _, tg := range st.targets {
				want += int64(len(encodeTarget(id, tg)))
			}
		}
		if got := s.RawBytes(); got != want {
			t.Errorf("%s: RawBytes = %d, want %d", when, got, want)
		}
	}
	live[1] = &stored{Annotation{ID: 1, Text: "12345", Document: strings.Repeat("d", 100), Title: "T"},
		[]Target{{Table: "t", Row: 1, Columns: Col(0)}}}
	multi := add(Annotation{Text: "spans three rows", Author: "x"},
		Target{Table: "t", Row: 1, Columns: Col(1)},
		Target{Table: "t", Row: 2, Columns: Col(0)},
		Target{Table: "u", Row: 3, Columns: Col(2)})
	gone := add(Annotation{Text: "retracted"}, Target{Table: "t", Row: 2, Columns: Col(1)})
	check("after adds")

	if _, err := s.Remove(gone); err != nil {
		t.Fatal(err)
	}
	delete(live, gone)
	check("after Remove")

	// Detaching row t/1 orphans annotation 1 and drops one of multi's
	// three targets.
	if _, orphaned, err := s.DetachRow("t", 1); err != nil || len(orphaned) != 1 || orphaned[0] != 1 {
		t.Fatalf("DetachRow = orphaned %v, %v; want [1]", orphaned, err)
	}
	delete(live, 1)
	live[multi].targets = live[multi].targets[1:]
	check("after DetachRow")

	if _, err := s.Remove(multi); err != nil {
		t.Fatal(err)
	}
	delete(live, multi)
	check("after removing everything")
	if s.RawBytes() != 0 || s.Count() != 0 {
		t.Errorf("emptied store: RawBytes = %d, Count = %d", s.RawBytes(), s.Count())
	}
}

func TestStoreRemove(t *testing.T) {
	s := newTestStore()
	id1, _ := s.Add(Annotation{Text: "first"}, []Target{
		{Table: "t", Row: 1, Columns: Col(0)},
		{Table: "t", Row: 2, Columns: Col(1)},
		{Table: "u", Row: 1, Columns: Col(0)},
	})
	id2, _ := s.Add(Annotation{Text: "second"}, []Target{{Table: "t", Row: 1, Columns: Col(0)}})
	before := s.RawBytes()

	targets, err := s.Remove(id1)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 3 {
		t.Fatalf("targets = %v", targets)
	}
	if _, err := s.Get(id1); err == nil {
		t.Error("removed annotation still readable")
	}
	if _, err := s.Remove(id1); err == nil {
		t.Error("double Remove succeeded")
	}
	if s.Count() != 1 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.RawBytes() >= before {
		t.Errorf("RawBytes not reduced: %d >= %d", s.RawBytes(), before)
	}
	// Row indexes updated: t/1 keeps only id2; t/2 and u/1 are empty.
	refs := s.ForTuple("t", 1)
	if len(refs) != 1 || refs[0].ID != id2 {
		t.Errorf("t/1 refs = %v", refs)
	}
	if s.ForTuple("t", 2) != nil || s.ForTuple("u", 1) != nil {
		t.Error("stale refs after Remove")
	}
	if got := s.TargetsOf(id1); len(got) != 0 {
		t.Errorf("TargetsOf survives Remove: %v", got)
	}
}

func TestStoreDetachRow(t *testing.T) {
	s := newTestStore()
	// exclusive: only on t/1 → orphaned by detach.
	exclusive, _ := s.Add(Annotation{Text: "exclusive"}, []Target{{Table: "t", Row: 1, Columns: Col(0)}})
	// shared: on t/1 and t/2 → survives on t/2.
	shared, _ := s.Add(Annotation{Text: "shared"}, []Target{
		{Table: "t", Row: 1, Columns: Col(0)},
		{Table: "t", Row: 2, Columns: Col(0)},
	})
	detached, orphaned, err := s.DetachRow("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(detached) != 2 || detached[0] != exclusive || detached[1] != shared {
		t.Errorf("detached = %v", detached)
	}
	if len(orphaned) != 1 || orphaned[0] != exclusive {
		t.Errorf("orphaned = %v", orphaned)
	}
	if _, err := s.Get(exclusive); err == nil {
		t.Error("orphaned annotation still readable")
	}
	if _, err := s.Get(shared); err != nil {
		t.Errorf("shared annotation removed: %v", err)
	}
	if got, want := s.TargetsOf(shared), []Target{{Table: "t", Row: 2, Columns: Col(0)}}; !reflect.DeepEqual(got, want) {
		t.Errorf("shared targets = %v, want %v", got, want)
	}
	// Detaching an unannotated row is a no-op.
	d, o, err := s.DetachRow("t", 99)
	if err != nil || d != nil || o != nil {
		t.Errorf("no-op detach = %v, %v, %v", d, o, err)
	}
}

func TestStoreRestore(t *testing.T) {
	s := newTestStore()
	a := Annotation{ID: 7, Text: "restored", Author: "x", Created: 5}
	targets := []Target{{Table: "t", Row: 3, Columns: Col(1)}}
	if err := s.Restore(a, targets); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(7)
	if err != nil || got.Text != "restored" {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	// Allocator advanced past the restored id.
	next, _ := s.Add(Annotation{Text: "next"}, targets)
	if next != 8 {
		t.Errorf("next id = %d", next)
	}
	// Validation.
	if err := s.Restore(Annotation{Text: "no id"}, targets); err == nil {
		t.Error("Restore without id succeeded")
	}
	if err := s.Restore(a, targets); err == nil {
		t.Error("duplicate Restore succeeded")
	}
	if err := s.Restore(Annotation{ID: 9}, nil); err == nil {
		t.Error("Restore without targets succeeded")
	}
}

func TestAnnotationHasDocument(t *testing.T) {
	if (Annotation{Text: "x"}).HasDocument() {
		t.Error("text-only annotation claims a document")
	}
	if !(Annotation{Document: "d"}).HasDocument() {
		t.Error("document annotation denies it")
	}
}
