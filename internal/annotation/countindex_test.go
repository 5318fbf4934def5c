package annotation

import (
	"fmt"
	"reflect"
	"testing"

	"insightnotes/internal/types"
)

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

func TestCountIndexTopAnnotated(t *testing.T) {
	s := newTestStore()
	// Row r carries r annotations, r in 1..5.
	for row := 1; row <= 5; row++ {
		for i := 0; i < row; i++ {
			addTo(t, s, "t", types.RowID(row))
		}
	}
	got := s.TopAnnotated("t", 2)
	want := []RowCount{{Row: 5, Count: 5}, {Row: 4, Count: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopAnnotated(2) = %v, want %v", got, want)
	}
	if got := s.TopAnnotated("t", 100); len(got) != 5 || got[0].Count != 5 || got[4].Count != 1 {
		t.Errorf("TopAnnotated(100) = %v, want 5 rows descending from count 5", got)
	}
	if got := s.TopAnnotated("t", 0); got != nil {
		t.Errorf("TopAnnotated(0) = %v, want nil", got)
	}
	if got := s.TopAnnotated("absent", 3); len(got) != 0 {
		t.Errorf("TopAnnotated on unknown table = %v, want none", got)
	}

	if got, want := s.RowsAnnotatedAtLeast("t", 3), []types.RowID{3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("RowsAnnotatedAtLeast(3) = %v, want %v", got, want)
	}
	if got := s.RowsAnnotatedAtLeast("t", 6); len(got) != 0 {
		t.Errorf("RowsAnnotatedAtLeast(6) = %v, want none", got)
	}
	// The floor clamps to 1: unannotated rows never appear.
	if got := s.RowsAnnotatedAtLeast("t", 0); len(got) != 5 {
		t.Errorf("RowsAnnotatedAtLeast(0) = %v, want all 5 annotated rows", got)
	}
}

// TestCountIndexCountsDistinctAnnotations: one annotation targeting the
// same row through several column sets counts once.
func TestCountIndexCountsDistinctAnnotations(t *testing.T) {
	s := newTestStore()
	if _, err := s.Add(Annotation{Text: "multi-target"}, []Target{
		{Table: "t", Row: 1, Columns: Col(0)},
		{Table: "t", Row: 1, Columns: Col(1)},
	}); err != nil {
		t.Fatal(err)
	}
	got := s.TopAnnotated("t", 10)
	want := []RowCount{{Row: 1, Count: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopAnnotated = %v, want %v (distinct annotations, not refs)", got, want)
	}
}

// TestCountIndexTracksMutations drives the index through Remove and
// DetachRow, the two retraction paths.
func TestCountIndexTracksMutations(t *testing.T) {
	s := newTestStore()
	a1 := addTo(t, s, "t", 1)
	addTo(t, s, "t", 1)
	addTo(t, s, "t", 2)

	if got, want := s.RowsAnnotatedAtLeast("t", 2), []types.RowID{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("RowsAnnotatedAtLeast(2) = %v, want %v", got, want)
	}
	if _, err := s.Remove(a1); err != nil {
		t.Fatal(err)
	}
	if got := s.RowsAnnotatedAtLeast("t", 2); len(got) != 0 {
		t.Errorf("after Remove: RowsAnnotatedAtLeast(2) = %v, want none", got)
	}
	if got := s.TopAnnotated("t", 10); len(got) != 2 {
		t.Errorf("after Remove: TopAnnotated = %v, want rows 1 and 2 at count 1", got)
	}
	if _, _, err := s.DetachRow("t", 1); err != nil {
		t.Fatal(err)
	}
	if got, want := s.RowsAnnotatedAtLeast("t", 1), []types.RowID{2}; !reflect.DeepEqual(got, want) {
		t.Errorf("after DetachRow: RowsAnnotatedAtLeast(1) = %v, want %v", got, want)
	}
}
