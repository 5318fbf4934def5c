package engine

import (
	"fmt"
	"sort"

	"insightnotes/internal/annotation"
	"insightnotes/internal/catalog"
	"insightnotes/internal/exec"
	"insightnotes/internal/plan"
	"insightnotes/internal/sql"
	"insightnotes/internal/summary"
	"insightnotes/internal/trace"
	"insightnotes/internal/types"
)

// AnnotationRequest describes one annotation to ingest programmatically.
type AnnotationRequest struct {
	Text     string
	Title    string
	Document string
	Author   string
	// Table names the target relation.
	Table string
	// Columns restricts the annotation to specific columns; empty means the
	// whole row.
	Columns []string
	// Where filters the target tuples (nil = every tuple). It is compiled
	// against the table schema.
	Where sql.Expr
	// Created optionally fixes the timestamp (0 = engine clock).
	Created int64
}

// TargetSpec names one attachment scope of an annotation: a table, an
// optional column restriction, and an optional tuple filter.
type TargetSpec struct {
	Table   string
	Columns []string
	Where   sql.Expr
}

// Annotate ingests one annotation: it resolves the matching tuples,
// persists the raw annotation with one target per tuple, and incrementally
// maintains the summary objects of every instance linked to the table —
// using the summarize-once digest cache when the instance's invariant
// properties allow it. It returns the annotation id and the number of
// tuples annotated.
func (db *DB) Annotate(req AnnotationRequest) (annotation.ID, int, error) {
	return db.AnnotateTargets(req.annotation(), []TargetSpec{{Table: req.Table, Columns: req.Columns, Where: req.Where}})
}

func (req AnnotationRequest) annotation() annotation.Annotation {
	return annotation.Annotation{
		Author: req.Author, Created: req.Created,
		Text: req.Text, Title: req.Title, Document: req.Document,
	}
}

// AnnotateTargets ingests one annotation attached to multiple scopes —
// possibly across several relations, the case the paper's Figure 2 join
// semantics and the summarize-once optimization are built around.
func (db *DB) AnnotateTargets(a annotation.Annotation, specs []TargetSpec) (annotation.ID, int, error) {
	ids, n, err := db.annotateCommit([]annotateItem{{ann: a, specs: specs}})
	if err != nil {
		return 0, 0, err
	}
	return ids[0], n, nil
}

// AnnotateBatch ingests many annotations as one mutation: all of them or
// none, under one lock acquisition, one WAL record and one commit fsync,
// with their summary maintenance handed over as one batch. It returns the
// assigned annotation ids and the total number of (annotation, tuple)
// attachments.
func (db *DB) AnnotateBatch(reqs []AnnotationRequest) ([]annotation.ID, int, error) {
	if len(reqs) == 0 {
		return nil, 0, fmt.Errorf("engine: AnnotateBatch needs at least one request")
	}
	items := make([]annotateItem, len(reqs))
	for i, req := range reqs {
		items[i] = annotateItem{
			ann:   req.annotation(),
			specs: []TargetSpec{{Table: req.Table, Columns: req.Columns, Where: req.Where}},
		}
	}
	return db.annotateCommit(items)
}

func (db *DB) annotateCommit(items []annotateItem) (ids []annotation.ID, n int, err error) {
	err = db.commit(nil, func() error {
		ids, n, err = db.annotate(items)
		return err
	})
	return ids, n, err
}

// annotateItem is one annotation to ingest and the scopes it attaches to.
type annotateItem struct {
	ann   annotation.Annotation
	specs []TargetSpec
}

// annotate is annotation ingest; one annotation is a batch of one. Every
// item is resolved against the catalog first — a bad table, column or
// predicate, or a scope matching no tuple, fails the batch before anything
// has mutated. Then ids and timestamps are assigned, the raw annotations
// stored, their summary maintenance routed as one batch (see maintain),
// and one WAL record logged carrying the resolved annotations — id,
// timestamp, matched rows — so replay never re-evaluates a WHERE clause.
// Callers are inside the commit shell.
func (db *DB) annotate(items []annotateItem) ([]annotation.ID, int, error) {
	tasks := make([]maintTask, len(items))
	for i, it := range items {
		if len(it.specs) == 0 {
			return nil, 0, fmt.Errorf("engine: annotation needs at least one target")
		}
		tasks[i].ann = it.ann
		for _, spec := range it.specs {
			tbl, err := db.cat.Table(spec.Table)
			if err != nil {
				return nil, 0, err
			}
			cols, err := resolveColumns(tbl.Schema(), spec.Columns)
			if err != nil {
				return nil, 0, err
			}
			rows, err := db.matchRows(tbl, spec.Where)
			if err != nil {
				return nil, 0, err
			}
			if len(rows) == 0 {
				return nil, 0, fmt.Errorf("engine: annotation matches no tuples of %s", spec.Table)
			}
			tasks[i].targets = append(tasks[i].targets, maintTarget{
				table: tbl.Name(), rows: rows, cols: cols,
				instances: db.cat.InstancesFor(tbl.Name()),
			})
		}
	}

	ids := make([]annotation.ID, len(tasks))
	rec := walAnnotate{Anns: make([]snapshotAnnotate, len(tasks))}
	total := 0
	for i := range tasks {
		a := &tasks[i].ann
		if a.Created == 0 {
			a.Created = db.nextAnnotationTime()
		}
		n := 0
		for _, tg := range tasks[i].targets {
			n += len(tg.rows)
		}
		targets := make([]annotation.Target, 0, n)
		for _, tg := range tasks[i].targets {
			for _, row := range tg.rows {
				targets = append(targets, annotation.Target{Table: tg.table, Row: row, Columns: tg.cols})
			}
		}
		id, err := db.anns.Add(*a, targets)
		if err != nil {
			return nil, 0, err
		}
		a.ID, ids[i] = id, id
		total += len(targets)
		rec.Anns[i] = newSnapshotAnnotate(*a, targets)
	}
	db.maintain(tasks)
	if err := db.logRecord(walTypeAnnotate, rec); err != nil {
		return nil, 0, err
	}
	return ids, total, nil
}

// resolveColumns maps column names to a ColSet (empty names = whole row).
func resolveColumns(schema types.Schema, names []string) (annotation.ColSet, error) {
	if len(names) == 0 {
		return annotation.WholeRow(schema.Len()), nil
	}
	var cols annotation.ColSet
	for _, n := range names {
		ix, err := schema.ColumnIndex(n)
		if err != nil {
			return 0, err
		}
		cols = cols.Union(annotation.Col(ix))
	}
	return cols, nil
}

// matchRows returns the row ids of tbl satisfying where (all rows when
// nil), in ascending row-id order. The access path is cost-based: when an
// indexed conjunct's estimated cost undercuts the full scan, candidates
// come from the index and the full predicate is re-evaluated per
// candidate; otherwise the heap is scanned. Callers hold the exclusive
// statement lock (UPDATE, DELETE, ANNOTATE all mutate), so the decision
// is recorded on a stmt.plan span under db.writeSpan when one is active.
func (db *DB) matchRows(tbl *catalog.Table, where sql.Expr) ([]types.RowID, error) {
	path := plan.ChooseDMLPath(tbl, where, db.cfg.PlanOptions.DisableIndexScan)
	if sp := db.writeSpan.Child(trace.SpanPlan); sp != nil {
		sp.Attr("path", path.Name)
		sp.AttrFloat("cost_seq", path.CostSeq)
		if path.Col != "" {
			sp.Attr("index_col", path.Col)
			sp.AttrFloat("cost_index", path.CostIndex)
			sp.AttrInt("est_rows", int64(path.Est))
		}
		sp.End()
	}

	var pred *exec.Compiled
	if where != nil {
		var err error
		pred, err = exec.Compile(where, tbl.Schema())
		if err != nil {
			return nil, err
		}
	}

	if path.Name != "full_scan" {
		var cand []types.RowID
		var err error
		if path.IsRange {
			cand, err = tbl.LookupByIndexRange(path.Col, path.Lo, path.Hi, path.LoInc, path.HiInc)
		} else {
			cand, err = tbl.LookupByIndex(path.Col, path.Val)
		}
		if err != nil {
			return nil, err
		}
		// The index served one conjunct; the full predicate still decides.
		var rows []types.RowID
		for _, row := range cand {
			tu, err := tbl.Get(row)
			if err != nil {
				return nil, err
			}
			v, err := pred.Eval(tu)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				rows = append(rows, row)
			}
		}
		// Heap scans yield ascending row ids; index candidates arrive in key
		// order. Sort so downstream effects (WAL records, messages) are
		// identical whichever path won.
		sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
		return rows, nil
	}

	var rows []types.RowID
	var evalErr error
	err := tbl.Scan(func(row types.RowID, tu types.Tuple) bool {
		if pred != nil {
			v, err := pred.Eval(tu)
			if err != nil {
				evalErr = err
				return false
			}
			if !v.Truthy() {
				return true
			}
		}
		rows = append(rows, row)
		return true
	})
	if err != nil {
		return nil, err
	}
	if evalErr != nil {
		return nil, evalErr
	}
	return rows, nil
}

// LinkInstance links a registered instance to a table and summarizes the
// table's existing annotations under it (the Figure 4 behaviour: the
// maintained summary objects change when links change).
func (db *DB) LinkInstance(instanceName, table string) error {
	return db.commit(nil, func() error { return db.execLink(instanceName, table, false) })
}

// UnlinkInstance unlinks an instance from a table and removes its objects
// from the table's maintained envelopes.
func (db *DB) UnlinkInstance(instanceName, table string) error {
	return db.commit(nil, func() error { return db.execLink(instanceName, table, true) })
}

// execLink applies and logs one link change. Callers are inside the commit
// shell.
func (db *DB) execLink(instanceName, table string, unlink bool) error {
	if err := db.setLink(instanceName, table, unlink); err != nil {
		return err
	}
	return db.logRecord(walTypeLink, walLink{Instance: instanceName, Table: table, Unlink: unlink})
}

// setLink applies one link change; WAL replay shares it.
func (db *DB) setLink(instanceName, table string, unlink bool) error {
	if unlink {
		return db.unlinkInstance(instanceName, table)
	}
	return db.linkInstance(instanceName, table)
}

func (db *DB) linkInstance(instanceName, table string) error {
	// Link changes rewrite maintained envelopes; deferred maintenance must
	// land first so catch-up never resurrects pre-link state.
	db.maint.drain()
	in, err := db.cat.Instance(instanceName)
	if err != nil {
		return err
	}
	tbl, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	if err := db.cat.Link(instanceName, tbl.Name()); err != nil {
		return err
	}
	// Backfill: summarize existing annotations under the new instance.
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, row := range db.anns.AnnotatedRows(tbl.Name()) {
		for _, ref := range db.anns.ForTuple(tbl.Name(), row) {
			a, err := db.anns.Get(ref.ID)
			if err != nil {
				return err
			}
			d := db.digestFor(in, a)
			db.envs.update(tbl.Name(), row, func(env *summary.Envelope) {
				env.Add(in, d, ref.Columns)
			})
		}
	}
	return nil
}

func (db *DB) unlinkInstance(instanceName, table string) error {
	// A queued task holding this instance would re-add its objects after
	// the unlink removed them; catch up first.
	db.maint.drain()
	tbl, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	if err := db.cat.Unlink(instanceName, tbl.Name()); err != nil {
		return err
	}
	// The instance index names exactly the envelopes carrying this
	// instance's objects — no full sweep over the table's stripe maps.
	db.envs.mutateInstance(tbl.Name(), instanceName, func(_ types.RowID, env *summary.Envelope) bool {
		env.RemoveInstance(instanceName)
		return env.IsEmpty()
	})
	return nil
}

// RebuildSummaries recomputes every envelope of table from the raw
// annotations, bypassing the digest cache — the full-recomputation
// baseline that the incremental-maintenance benchmark (E4) compares
// against. It returns the number of (annotation, tuple) summarization
// steps performed.
func (db *DB) RebuildSummaries(table string) (steps int, err error) {
	err = db.commit(nil, func() error {
		steps, err = db.rebuildSummaries(table)
		return err
	})
	return steps, err
}

func (db *DB) rebuildSummaries(table string) (int, error) {
	// The rebuild reads the raw annotations, which already include any
	// queued ones — draining first keeps the worker from re-applying them
	// on top of the rebuilt envelopes.
	db.maint.drain()
	tbl, err := db.cat.Table(table)
	if err != nil {
		return 0, err
	}
	instances := db.cat.InstancesFor(tbl.Name())
	db.mu.Lock()
	defer db.mu.Unlock()
	db.envs.dropTable(tbl.Name())
	steps := 0
	for _, row := range db.anns.AnnotatedRows(tbl.Name()) {
		for _, ref := range db.anns.ForTuple(tbl.Name(), row) {
			a, err := db.anns.Get(ref.ID)
			if err != nil {
				return steps, err
			}
			for _, in := range instances {
				d := in.Summarize(a)
				db.envs.update(tbl.Name(), row, func(env *summary.Envelope) {
					env.Add(in, d, ref.Columns)
				})
				steps++
			}
		}
	}
	return steps, nil
}

// TrainClassifier feeds labeled samples into a classifier instance.
// Training refines future summarization; existing summary objects are
// refreshed only by RebuildSummaries (documented behaviour).
func (db *DB) TrainClassifier(instanceName string, samples [][2]string) error {
	return db.commit(nil, func() error { return db.execTrain(instanceName, samples) })
}

// execTrain applies and logs one training batch. Callers are inside the
// commit shell.
func (db *DB) execTrain(instanceName string, samples [][2]string) error {
	if err := db.trainClassifier(instanceName, samples); err != nil {
		return err
	}
	return db.logRecord(walTypeTrain, walTrain{Instance: instanceName, Samples: samples})
}

func (db *DB) trainClassifier(instanceName string, samples [][2]string) error {
	// Queued maintenance must summarize under the pre-training model —
	// exactly what the synchronous path would have done at ingest time.
	db.maint.drain()
	in, err := db.cat.Instance(instanceName)
	if err != nil {
		return err
	}
	if in.Type != summary.TypeClassifier {
		return fmt.Errorf("engine: TRAIN SUMMARY targets classifier instances; %q is a %s", instanceName, in.Type)
	}
	for _, s := range samples {
		if err := in.Classifier.Learn(s[0], s[1]); err != nil {
			return err
		}
	}
	// Trained model invalidates cached digests for this instance.
	db.mu.Lock()
	delete(db.digests, instanceName)
	db.mu.Unlock()
	if m := db.metrics; m != nil {
		m.retrain.Add(int64(len(samples)))
	}
	return nil
}
