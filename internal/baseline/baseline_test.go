package baseline

import (
	"strings"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/catalog"
	"insightnotes/internal/storage"
	"insightnotes/internal/types"
)

type bworld struct {
	cat   *catalog.Catalog
	store *annotation.Store
	r, s  *catalog.Table
}

func newBWorld(t *testing.T) *bworld {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemStore(), 128)
	cat := catalog.New()
	r, err := cat.CreateTable("R", types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "c", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cat.CreateTable("S", types.NewSchema(
		types.Column{Name: "x", Kind: types.KindInt},
		types.Column{Name: "z", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	return &bworld{cat: cat, store: annotation.NewStore(pool), r: r, s: s}
}

func (w *bworld) annotate(t *testing.T, table string, row types.RowID, text string, cols annotation.ColSet) annotation.ID {
	t.Helper()
	id, err := w.store.Add(annotation.Annotation{Text: text},
		[]annotation.Target{{Table: table, Row: row, Columns: cols}})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestBaselineScanCarriesRawAnnotations(t *testing.T) {
	w := newBWorld(t)
	row, _ := w.r.Insert(types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("c")})
	w.annotate(t, "R", row, strings.Repeat("long raw text ", 10), annotation.WholeRow(3))
	rows, bytes, err := Collect(NewScan(w.r, "r", w.store))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Anns) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if bytes != rows[0].Bytes() || bytes < 100 {
		t.Errorf("bytes = %d", bytes)
	}
}

func TestBaselineProjectCurates(t *testing.T) {
	w := newBWorld(t)
	row, _ := w.r.Insert(types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("c")})
	keep := w.annotate(t, "R", row, "on a", annotation.Col(0))
	w.annotate(t, "R", row, "on c only", annotation.Col(2))
	rows, _, err := Collect(NewProject(NewScan(w.r, "r", w.store), []int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0].Anns) != 1 || rows[0].Anns[0].ID != keep {
		t.Errorf("anns = %v", rows[0].Anns)
	}
	if rows[0].Cover[keep] != annotation.Col(0) {
		t.Errorf("cover = %v", rows[0].Cover[keep])
	}
	if rows[0].Tuple.EqualOn(types.Tuple{types.NewInt(1), types.NewInt(2)}, nil) == false {
		t.Errorf("tuple = %v", rows[0].Tuple)
	}
}

func TestBaselineFilterAndJoinDedup(t *testing.T) {
	w := newBWorld(t)
	r1, _ := w.r.Insert(types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("c")})
	r2, _ := w.r.Insert(types.Tuple{types.NewInt(9), types.NewInt(2), types.NewString("c")})
	s1, _ := w.s.Insert(types.Tuple{types.NewInt(1), types.NewString("z")})
	_ = r2
	// One annotation shared by both sides.
	shared, _ := w.store.Add(annotation.Annotation{Text: "shared"}, []annotation.Target{
		{Table: "R", Row: r1, Columns: annotation.WholeRow(3)},
		{Table: "S", Row: s1, Columns: annotation.WholeRow(2)},
	})
	w.annotate(t, "R", r1, "only r", annotation.Col(0))
	w.annotate(t, "S", s1, "only s", annotation.Col(1))

	left := NewFilter(NewScan(w.r, "r", w.store), func(tu types.Tuple) (bool, error) {
		return tu[1].Int() == 2 && tu[0].Int() == 1, nil
	})
	join := NewHashJoin(left, NewScan(w.s, "s", w.store), 0, 0)
	rows, bytes, err := Collect(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if len(rows[0].Anns) != 3 {
		t.Errorf("anns = %d, want 3 (shared deduplicated)", len(rows[0].Anns))
	}
	// Shared annotation covers both sides' columns.
	want := annotation.WholeRow(3).Union(annotation.WholeRow(2).Shift(3))
	if rows[0].Cover[shared] != want {
		t.Errorf("shared cover = %v, want %v", rows[0].Cover[shared], want)
	}
	if bytes <= 0 {
		t.Error("no bytes accounted")
	}
	if rows[0].Tuple[3].Int() != 1 || rows[0].Tuple[4].Str() != "z" {
		t.Errorf("joined tuple = %v", rows[0].Tuple)
	}
}

func TestBaselineJoinNullKeys(t *testing.T) {
	w := newBWorld(t)
	w.r.Insert(types.Tuple{types.Null(), types.NewInt(2), types.NewString("c")})
	w.s.Insert(types.Tuple{types.Null(), types.NewString("z")})
	rows, _, err := Collect(NewHashJoin(NewScan(w.r, "r", w.store), NewScan(w.s, "s", w.store), 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("NULL keys joined: %d", len(rows))
	}
}

func TestBaselinePropagatedBytesGrowWithAnnotations(t *testing.T) {
	// The motivating measurement: raw propagation cost scales with the
	// number of annotations per tuple.
	w := newBWorld(t)
	row, _ := w.r.Insert(types.Tuple{types.NewInt(1), types.NewInt(2), types.NewString("c")})
	var prev int64
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			w.annotate(t, "R", row, strings.Repeat("annotation text ", 5), annotation.WholeRow(3))
		}
		_, bytes, err := Collect(NewScan(w.r, "r", w.store))
		if err != nil {
			t.Fatal(err)
		}
		if bytes <= prev {
			t.Fatalf("round %d: bytes %d did not grow past %d", round, bytes, prev)
		}
		prev = bytes
	}
}
