// Package difftest is the equivalence oracle of the engine's tests: two
// databases that ran equivalent histories (a recovered engine and its
// shadow, a replica and its primary, deferred and synchronous
// maintenance) must hold the same State, and two equivalent executions
// (another plan, batch size or access path) must return the same rows
// with Envelope.Equal summaries (Theorems 1&2).
//
// It reads a database only through methods *engine.DB exports and never
// imports internal/engine, so the engine's own package tests use it too.
package difftest

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/catalog"
	"insightnotes/internal/codec"
	"insightnotes/internal/exec"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// DB is what State reads of a database; *engine.DB implements it.
type DB interface {
	Catalog() *catalog.Catalog
	Annotations() *annotation.Store
	EnvelopeFor(table string, row types.RowID) *summary.Envelope
}

// State returns db's logical state, one fact per line in a canonical
// order: each table with its schema, indexes, row-id allocator and rows in
// row-id order, each row followed by its stored envelope (Envelope.Encode,
// and Render for what decoding derives: counts and representatives);
// each instance (Instance.Encode) with its links; the annotation count and
// id allocator; and every annotation with its targets, in id order. It
// fails when an annotation's text cannot be read.
func State(db DB) ([]string, error) {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	cat, anns := db.Catalog(), db.Annotations()
	var ids []annotation.ID
	for _, name := range cat.TableNames() {
		tbl, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		add("table %s %v next_row %d", name, tbl.Schema().Columns, tbl.NextRow())
		indexed := tbl.IndexedColumns()
		slices.Sort(indexed)
		add("index %s %v verify %v", name, indexed, tbl.VerifyIndexes())
		for _, r := range tbl.Rows() {
			add("row %s %d %s", name, r.ID, tupleText(r.Tuple))
			if env := db.EnvelopeFor(name, r.ID); !empty(env) {
				w := codec.NewWriter(nil)
				env.Encode(w)
				add("env %s %d %x %q", name, r.ID, w.Bytes(), env.Render())
			}
		}
		for _, row := range anns.AnnotatedRows(name) {
			for _, ref := range anns.ForTuple(name, row) {
				ids = append(ids, ref.ID)
			}
		}
	}
	for _, name := range cat.InstanceNames() {
		in, err := cat.Instance(name)
		if err != nil {
			return nil, err
		}
		w := codec.NewWriter(nil)
		in.Encode(w)
		add("instance %s %x links %v", name, w.Bytes(), cat.TablesFor(name))
	}
	add("annotations %d next_id %d", anns.Count(), anns.NextID())
	slices.Sort(ids)
	for _, id := range slices.Compact(ids) {
		a, err := anns.Get(id)
		if err != nil {
			return nil, err
		}
		add("annotation %+v targets %v", a, anns.TargetsOf(id))
	}
	return out, nil
}

// Diff names the first line where got and want differ, or returns ""
// when they are the same.
func Diff(got, want []string) string {
	for i := 0; i < max(len(got), len(want)); i++ {
		g, w := "(end)", "(end)"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("state line %d differs\ngot:  %s\nwant: %s", i+1, g, w)
		}
	}
	return ""
}

// SameState fails t, naming the first line that differs, unless got and
// want hold the same State.
func SameState(t testing.TB, got, want DB) {
	t.Helper()
	g, err := State(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := State(want)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(g, w); d != "" {
		t.Fatal(d)
	}
}

// Rows compares two answers row by row in order and names the first row
// that differs: tuples must be equal value for value, kinds included, and
// summaries Envelope.Equal. It returns "" when they are the same.
func Rows(got, want []*exec.Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !sameRow(got[i], want[i]) {
			return fmt.Sprintf("row %d differs\ngot:  %s\nwant: %s", i+1, rowText(got[i]), rowText(want[i]))
		}
	}
	return ""
}

// Bag is Rows for answers whose order is not fixed: each row of got must
// pair with its own row of want.
func Bag(got, want []*exec.Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	left := slices.Clone(want)
	for _, g := range got {
		i := slices.IndexFunc(left, func(w *exec.Row) bool { return sameRow(g, w) })
		if i < 0 {
			return fmt.Sprintf("no row of want matches\ngot:  %s", rowText(g))
		}
		left = slices.Delete(left, i, i+1)
	}
	return ""
}

func sameRow(a, b *exec.Row) bool {
	if tupleText(a.Tuple) != tupleText(b.Tuple) || empty(a.Env) != empty(b.Env) {
		return false
	}
	return empty(a.Env) || a.Env.Equal(b.Env)
}

// empty reports whether env carries no summary: nil or no annotation.
func empty(env *summary.Envelope) bool { return env == nil || env.IsEmpty() }

func rowText(r *exec.Row) string {
	if empty(r.Env) {
		return tupleText(r.Tuple)
	}
	return tupleText(r.Tuple) + "\n" + r.Env.Render()
}

// tupleText renders a tuple exactly: each value with its kind, so INT 1
// and FLOAT 1 differ.
func tupleText(tu types.Tuple) string {
	vals := make([]string, len(tu))
	for i, v := range tu {
		vals[i] = v.Kind().String() + " " + v.SQLString()
	}
	return "(" + strings.Join(vals, ", ") + ")"
}
