package engine

import (
	"fmt"

	"insightnotes/internal/annotation"
	"insightnotes/internal/exec"
	"insightnotes/internal/sql"
	"insightnotes/internal/types"
)

// execUpdate runs UPDATE ... SET ... WHERE. Annotations annotate tuple
// identity, so they stay attached to updated tuples; summary objects are
// unchanged (the data changed, not the metadata).
func (db *DB) execUpdate(s *sql.Update) (*Result, error) {
	tbl, err := db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	type assign struct {
		col  int
		expr *exec.Compiled
	}
	assigns := make([]assign, len(s.Set))
	for i, set := range s.Set {
		ci, err := schema.ColumnIndex(set.Column)
		if err != nil {
			return nil, err
		}
		c, err := exec.Compile(set.Value, schema)
		if err != nil {
			return nil, err
		}
		assigns[i] = assign{col: ci, expr: c}
	}
	rows, err := db.matchRows(tbl, s.Where)
	if err != nil {
		return nil, err
	}
	// The record carries validated post-images, not the SET expressions:
	// a row that fails to evaluate fails the statement before any row
	// changes, and replay never re-matches the WHERE clause against a
	// state that later records will change.
	images := make([]walRow, len(rows))
	for i, row := range rows {
		tu, err := tbl.Get(row)
		if err != nil {
			return nil, err
		}
		updated := tu.Clone()
		for _, a := range assigns {
			if updated[a.col], err = a.expr.Eval(tu); err != nil {
				return nil, err
			}
		}
		if err := tbl.Validate(updated); err != nil {
			return nil, err
		}
		images[i] = walRow{ID: row, Values: updated}
	}
	if _, err := db.mutate(walTypeUpdate, &walRows{Table: tbl.Name(), Rows: images}); err != nil {
		return nil, err
	}
	return &Result{
		Message: fmt.Sprintf("%d row(s) updated in %s", len(rows), tbl.Name()),
		Count:   len(rows),
	}, nil
}

// execDelete runs DELETE FROM ... WHERE. Deleted tuples' annotations are
// detached; annotations attached nowhere else are removed entirely, and
// the tuples' summary envelopes are dropped.
func (db *DB) execDelete(s *sql.Delete) (*Result, error) {
	tbl, err := db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	rows, err := db.matchRows(tbl, s.Where)
	if err != nil {
		return nil, err
	}
	orphaned, err := db.mutate(walTypeDelete, &walDelete{Table: tbl.Name(), Rows: rows})
	if err != nil {
		return nil, err
	}
	msg := fmt.Sprintf("%d row(s) deleted from %s", len(rows), tbl.Name())
	if orphaned > 0 {
		msg += fmt.Sprintf(" (%d orphaned annotation(s) removed)", orphaned)
	}
	return &Result{Message: msg, Count: len(rows)}, nil
}

// deleteRows deletes rows of table, with their summary envelopes, and
// detaches their annotations, returning the number of annotations the
// deletion orphaned and removed.
func (db *DB) deleteRows(table string, rows []types.RowID) (int, error) {
	tbl, err := db.cat.Table(table)
	if err != nil {
		return 0, err
	}
	// A queued task for a deleted row would recreate its envelope after
	// the delete dropped it; catch up first.
	db.maint.drain()
	orphaned := 0
	for _, row := range rows {
		if err := tbl.Delete(row); err != nil {
			return 0, err
		}
		_, gone, err := db.anns.DetachRow(tbl.Name(), row)
		if err != nil {
			return 0, err
		}
		orphaned += len(gone)
	}
	return orphaned, nil
}

// DropAnnotation retracts one annotation: the raw record and its targets
// are deleted, and its effect is curated out of every maintained summary
// object — classifier counts decrement, cluster groups shrink and re-elect
// representatives, snippets disappear.
func (db *DB) DropAnnotation(id annotation.ID) error {
	_, err := db.commitRecord(walTypeDropAnnotation, &walDropAnnotation{ID: id})
	return err
}

func (db *DB) dropAnnotation(id annotation.ID) error {
	// The retraction curates the annotation out of envelopes; a queued
	// task for it would add it back afterwards. Catch up first.
	db.maint.drain()
	targets, err := db.anns.Remove(id)
	if err != nil {
		return err
	}
	// A tuple the annotation targets twice (two column sets) is visited
	// twice; the second RemoveAnnotation finds nothing to remove.
	for _, tg := range targets {
		tbl, err := db.cat.Table(tg.Table)
		if err != nil {
			continue
		}
		if env := tbl.Envelope(tg.Row); env != nil {
			env.RemoveAnnotation(id)
			if env.IsEmpty() {
				tbl.SetEnvelope(tg.Row, nil)
			}
		}
	}
	return nil
}
