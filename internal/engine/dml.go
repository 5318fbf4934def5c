package engine

import (
	"fmt"

	"insightnotes/internal/annotation"
	"insightnotes/internal/catalog"
	"insightnotes/internal/exec"
	"insightnotes/internal/sql"
	"insightnotes/internal/summary"
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
	// The WAL record carries post-images, not the SET expressions: replay
	// must not depend on re-matching the WHERE clause against a state
	// that later records will change.
	images := make([]snapshotRow, 0, len(rows))
	for _, row := range rows {
		tu, err := tbl.Get(row)
		if err != nil {
			return nil, err
		}
		updated := tu.Clone()
		for _, a := range assigns {
			v, err := a.expr.Eval(tu)
			if err != nil {
				return nil, err
			}
			updated[a.col] = v
		}
		if err := tbl.Update(row, updated); err != nil {
			return nil, err
		}
		images = append(images, snapshotRow{ID: row, Values: updated})
	}
	if err := db.logRecord(walTypeUpdate, walRows{Table: tbl.Name(), Rows: images}); err != nil {
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
	// A queued task for a deleted row would recreate its envelope after
	// the delete dropped it; catch up first.
	db.maint.drain()
	rows, err := db.matchRows(tbl, s.Where)
	if err != nil {
		return nil, err
	}
	orphanedTotal := 0
	for _, row := range rows {
		orphaned, err := db.deleteRow(tbl, row)
		if err != nil {
			return nil, err
		}
		orphanedTotal += len(orphaned)
	}
	if err := db.logRecord(walTypeDelete, walDelete{Table: tbl.Name(), Rows: rows}); err != nil {
		return nil, err
	}
	msg := fmt.Sprintf("%d row(s) deleted from %s", len(rows), tbl.Name())
	if orphanedTotal > 0 {
		msg += fmt.Sprintf(" (%d orphaned annotation(s) removed)", orphanedTotal)
	}
	return &Result{Message: msg, Count: len(rows)}, nil
}

// deleteRow deletes one row, detaches its annotations, and drops its
// summary envelope, returning the annotation ids orphaned by the
// deletion. Shared by DELETE execution and WAL replay. Callers hold the
// exclusive statement lock.
func (db *DB) deleteRow(tbl *catalog.Table, row types.RowID) ([]annotation.ID, error) {
	if err := tbl.Delete(row); err != nil {
		return nil, err
	}
	_, orphaned, err := db.anns.DetachRow(tbl.Name(), row)
	if err != nil {
		return nil, err
	}
	db.envs.deleteRow(tbl.Name(), row)
	db.mu.Lock()
	for _, id := range orphaned {
		db.dropDigestsLocked(id)
	}
	db.mu.Unlock()
	return orphaned, nil
}

// DropAnnotation retracts one annotation: the raw record and its targets
// are deleted, and its effect is curated out of every maintained summary
// object — classifier counts decrement, cluster groups shrink and re-elect
// representatives, snippets disappear.
func (db *DB) DropAnnotation(id annotation.ID) error {
	return db.commit(nil, func() error { return db.execDropAnnotation(id) })
}

// execDropAnnotation applies and logs one retraction. Callers are inside
// the commit shell.
func (db *DB) execDropAnnotation(id annotation.ID) error {
	if err := db.dropAnnotation(id); err != nil {
		return err
	}
	return db.logRecord(walTypeDropAnnotation, walDropAnnotation{ID: id})
}

func (db *DB) dropAnnotation(id annotation.ID) error {
	// The retraction curates the annotation out of envelopes; a queued
	// task for it would add it back afterwards. Catch up first.
	db.maint.drain()
	targets, err := db.anns.Remove(id)
	if err != nil {
		return err
	}
	seen := map[string]map[types.RowID]bool{}
	for _, tg := range targets {
		if seen[tg.Table] == nil {
			seen[tg.Table] = map[types.RowID]bool{}
		}
		if seen[tg.Table][tg.Row] {
			continue
		}
		seen[tg.Table][tg.Row] = true
		db.envs.mutate(tg.Table, tg.Row, func(env *summary.Envelope) bool {
			env.RemoveAnnotation(id)
			return env.IsEmpty()
		})
	}
	db.mu.Lock()
	db.dropDigestsLocked(id)
	db.mu.Unlock()
	return nil
}

// dropDigestsLocked evicts an annotation's cached digests. Requires db.mu.
func (db *DB) dropDigestsLocked(id annotation.ID) {
	for _, byAnn := range db.digests {
		delete(byAnn, id)
	}
}
