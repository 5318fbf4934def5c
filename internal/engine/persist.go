package engine

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"insightnotes/internal/annotation"
	"insightnotes/internal/failpoint"
	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

// Snapshot format: one JSON document holding the complete logical state —
// schemas, rows, indexes, summary instances (with trained models), links,
// and raw annotations with their targets. Summary objects are NOT stored:
// they are deterministically rebuilt from the raw annotations on load, as
// one maintenance batch (applyTasks) in which each tuple sees its
// annotations in id order, the same order incremental maintenance observed
// them. The one thing a rebuild cannot recompute is a classifier label
// given under a model trained since, so each annotation carries the label
// index it holds per classifier instance.
//
// For durability (see durability.go) the snapshot additionally records
// the WAL LSN it includes, so recovery can skip already-captured log
// records, and the id-allocator positions (per-table next row id, next
// annotation id, annotation clock), so ids assigned after recovery never
// collide with ids whose rows or annotations were deleted before the
// snapshot was taken.
const snapshotVersion = 1

type snapshot struct {
	Version int `json:"version"`
	// LSN is the WAL position the snapshot includes; replay skips
	// records at or below it. Zero for standalone Save snapshots.
	LSN         uint64             `json:"lsn,omitempty"`
	Tables      []snapshotTable    `json:"tables"`
	Instances   []json.RawMessage  `json:"instances"`
	Links       []snapshotLink     `json:"links"`
	Annotations []snapshotAnnotate `json:"annotations"`
	// NextAnnotationID / AnnClock restore the annotation id allocator and
	// ingestion clock (zero in pre-durability snapshots: derived from the
	// stored annotations instead, the old behaviour).
	NextAnnotationID annotation.ID `json:"next_annotation_id,omitempty"`
	AnnClock         int64         `json:"ann_clock,omitempty"`
}

type snapshotTable struct {
	Name    string           `json:"name"`
	Columns []snapshotColumn `json:"columns"`
	Indexes []string         `json:"indexes,omitempty"`
	Rows    []snapshotRow    `json:"rows"`
	// NextRow restores the row-id allocator (zero in pre-durability
	// snapshots: derived from the stored rows).
	NextRow types.RowID `json:"next_row,omitempty"`
}

type snapshotColumn struct {
	Name string     `json:"name"`
	Kind types.Kind `json:"kind"`
}

type snapshotRow struct {
	ID     types.RowID   `json:"id"`
	Values []types.Value `json:"values"`
}

type snapshotLink struct {
	Instance string `json:"instance"`
	Table    string `json:"table"`
}

type snapshotAnnotate struct {
	ID       annotation.ID    `json:"id"`
	Author   string           `json:"author,omitempty"`
	Created  int64            `json:"created"`
	Text     string           `json:"text"`
	Title    string           `json:"title,omitempty"`
	Document string           `json:"document,omitempty"`
	Targets  []snapshotTarget `json:"targets"`
	// Labels maps classifier instance name to the label index the
	// annotation holds in its envelopes (snapshots only: a WAL record is
	// replayed under the model it was logged under). Absent in older
	// snapshots, whose annotations are classified again on load.
	Labels map[string]int `json:"labels,omitempty"`
}

type snapshotTarget struct {
	Table string            `json:"table"`
	Row   types.RowID       `json:"row"`
	Cols  annotation.ColSet `json:"cols"`
	// Labels overrides the annotation's Labels for this target: an
	// instance linked to this table after a retraining classified the
	// annotation here under the newer model.
	Labels map[string]int `json:"labels,omitempty"`
}

// Save writes the complete database state to w. It runs under the shared
// statement lock: concurrent queries proceed, writes wait.
func (db *DB) Save(w io.Writer) error {
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	return db.writeSnapshot(w, 0)
}

// writeSnapshot serializes the state with the given included-LSN mark.
// Callers hold the statement lock (shared or exclusive).
func (db *DB) writeSnapshot(w io.Writer, lsn uint64) error {
	snap := snapshot{
		Version:          snapshotVersion,
		LSN:              lsn,
		NextAnnotationID: db.anns.NextID(),
		AnnClock:         db.annClock.Load(),
	}
	for _, name := range db.cat.TableNames() {
		tbl, err := db.cat.Table(name)
		if err != nil {
			return err
		}
		st := snapshotTable{
			Name:    tbl.Name(),
			Indexes: tbl.IndexedColumns(),
			NextRow: tbl.NextRow(),
		}
		for _, c := range tbl.Schema().Columns {
			st.Columns = append(st.Columns, snapshotColumn{Name: c.Name, Kind: c.Kind})
		}
		tbl.Scan(func(row types.RowID, tu types.Tuple) bool {
			st.Rows = append(st.Rows, snapshotRow{ID: row, Values: tu})
			return true
		})
		snap.Tables = append(snap.Tables, st)
	}
	for _, name := range db.cat.InstanceNames() {
		in, err := db.cat.Instance(name)
		if err != nil {
			return err
		}
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		snap.Instances = append(snap.Instances, raw)
		for _, tbl := range db.cat.TablesFor(name) {
			snap.Links = append(snap.Links, snapshotLink{Instance: name, Table: tbl})
		}
	}
	// Annotations, deduplicated across multi-table targets, in id order.
	seen := map[annotation.ID]bool{}
	for _, st := range snap.Tables {
		for _, row := range db.anns.AnnotatedRows(st.Name) {
			for _, ref := range db.anns.ForTuple(st.Name, row) {
				if seen[ref.ID] {
					continue
				}
				seen[ref.ID] = true
				a, err := db.anns.Get(ref.ID)
				if err != nil {
					return err
				}
				sa := newSnapshotAnnotate(a, db.anns.TargetsOf(ref.ID))
				db.recordLabels(&sa)
				snap.Annotations = append(snap.Annotations, sa)
			}
		}
	}
	slices.SortFunc(snap.Annotations, func(a, b snapshotAnnotate) int { return cmp.Compare(a.ID, b.ID) })
	enc := json.NewEncoder(w)
	return enc.Encode(&snap)
}

// newSnapshotAnnotate is the persisted form — snapshot and WAL alike — of
// one annotation and its resolved targets; restore is its inverse.
func newSnapshotAnnotate(a annotation.Annotation, targets []annotation.Target) snapshotAnnotate {
	sa := snapshotAnnotate{
		ID: a.ID, Author: a.Author, Created: a.Created,
		Text: a.Text, Title: a.Title, Document: a.Document,
		Targets: make([]snapshotTarget, len(targets)),
	}
	for i, tg := range targets {
		sa.Targets[i] = snapshotTarget{Table: tg.Table, Row: tg.Row, Cols: tg.Columns}
	}
	return sa
}

// recordLabels fills sa's label indexes from the classifier objects of its
// targets' envelopes. Callers hold the statement lock.
func (db *DB) recordLabels(sa *snapshotAnnotate) {
	for j := range sa.Targets {
		tg := &sa.Targets[j]
		db.envs.read(tg.Table, tg.Row, func(env *summary.Envelope) {
			for name := range env.Objects {
				l, ok := env.Label(name, sa.ID)
				if !ok {
					continue
				}
				if cur, seen := sa.Labels[name]; !seen {
					if sa.Labels == nil {
						sa.Labels = make(map[string]int)
					}
					sa.Labels[name] = l
				} else if cur != l {
					if tg.Labels == nil {
						tg.Labels = make(map[string]int)
					}
					tg.Labels[name] = l
				}
			}
		})
	}
}

// snapshotToFile writes a snapshot atomically: temp file, flush, fsync,
// rename. The checkpoint failpoints are evaluated here so crash tests
// cover every ordering of "temp written / snapshot published / WAL
// reset". Callers hold the statement lock.
func (db *DB) snapshotToFile(path string, lsn uint64) error {
	if err := failpoint.Eval(failpoint.CheckpointSnapshotWrite); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := db.writeSnapshot(bw, lsn); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := failpoint.Eval(failpoint.CheckpointBeforeRename); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// SaveFile is Save to a file path (written atomically via a temp file).
func (db *DB) SaveFile(path string) error {
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	return db.snapshotToFile(path, 0)
}

// corruptf builds the uniform descriptive error for malformed snapshots.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("engine: corrupt snapshot: %s", fmt.Sprintf(format, args...))
}

// Load restores a database from a snapshot produced by Save into a fresh
// DB with the given configuration. Summary objects are rebuilt by
// replaying the raw annotations through the maintenance path.
//
// Load validates the snapshot defensively — truncated or non-JSON input,
// unsupported versions, duplicate tables or rows, unknown instance
// types, and annotations targeting missing tables or rows all produce a
// descriptive error, never a panic: a corrupt snapshot must fail the
// recovery cleanly rather than take down (or silently skew) the engine.
func Load(r io.Reader, cfg Config) (*DB, error) {
	db, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, corruptf("%v", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("engine: unsupported snapshot version %d", snap.Version)
	}
	if err := db.applySnapshot(&snap); err != nil {
		return nil, err
	}
	return db, nil
}

// applySnapshot populates db from a decoded snapshot, with the same
// defensive validation Load documents. The receiver must hold no state
// that collides with the snapshot's objects: a freshly opened DB, or one
// just cleared for a replica resync. Callers own the statement lock
// story (Load's DB is unshared; the resync path holds it exclusively).
func (db *DB) applySnapshot(snap *snapshot) error {
	for _, st := range snap.Tables {
		if st.Name == "" {
			return corruptf("table with empty name")
		}
		if len(st.Columns) == 0 {
			return corruptf("table %q has no columns", st.Name)
		}
		cols := make([]types.Column, len(st.Columns))
		for i, c := range st.Columns {
			cols[i] = types.Column{Name: c.Name, Kind: c.Kind}
		}
		tbl, err := db.cat.CreateTable(st.Name, types.Schema{Columns: cols})
		if err != nil {
			return corruptf("table %q: %v", st.Name, err)
		}
		for _, row := range st.Rows {
			if err := tbl.InsertWithID(row.ID, types.Tuple(row.Values)); err != nil {
				return corruptf("table %q row %d: %v", st.Name, row.ID, err)
			}
		}
		for _, idx := range st.Indexes {
			if err := tbl.CreateIndex(idx); err != nil {
				return corruptf("table %q index %q: %v", st.Name, idx, err)
			}
		}
		tbl.EnsureNextRow(st.NextRow)
	}
	for i, raw := range snap.Instances {
		in := new(summary.Instance)
		if err := json.Unmarshal(raw, in); err != nil {
			return corruptf("instance %d: %v", i, err)
		}
		if err := db.cat.RegisterInstance(in); err != nil {
			return corruptf("instance %q: %v", in.Name, err)
		}
	}
	for _, l := range snap.Links {
		if err := db.cat.Link(l.Instance, l.Table); err != nil {
			return corruptf("link %s -> %s: %v", l.Instance, l.Table, err)
		}
	}
	// Restore raw annotations in id order (the order the original
	// incremental maintenance saw them), then rebuild their summaries as
	// one maintenance batch.
	for _, sa := range snap.Annotations {
		if sa.ID <= 0 {
			return corruptf("annotation with invalid id %d", sa.ID)
		}
		if len(sa.Targets) == 0 {
			return corruptf("annotation %d has no targets", sa.ID)
		}
		for _, tg := range sa.Targets {
			tbl, err := db.cat.Table(tg.Table)
			if err != nil {
				return corruptf("annotation %d targets unknown table %q", sa.ID, tg.Table)
			}
			if _, err := tbl.Get(tg.Row); err != nil {
				return corruptf("annotation %d targets missing row %d of %q", sa.ID, tg.Row, tg.Table)
			}
		}
	}
	if err := db.applyAnnotates(snap.Annotations); err != nil {
		return corruptf("%v", err)
	}
	db.anns.EnsureNextID(snap.NextAnnotationID)
	if snap.AnnClock > db.annClock.Load() {
		db.annClock.Store(snap.AnnClock)
	}
	db.recoveredLSN = snap.LSN
	return nil
}

// applyAnnotates re-adds persisted annotations under their original ids
// and maintains their summaries as one batch — snapshot load restores all
// of its annotations at once, WAL replay one annotate record at a time, so
// a batch never spans a retraining. A recorded classifier label is kept
// rather than classified again.
func (db *DB) applyAnnotates(sas []snapshotAnnotate) error {
	tasks := make([]maintTask, len(sas))
	linked := make(map[string][]*summary.Instance)
	for i, sa := range sas {
		a := annotation.Annotation{
			ID: sa.ID, Author: sa.Author, Created: sa.Created,
			Text: sa.Text, Title: sa.Title, Document: sa.Document,
		}
		targets := make([]annotation.Target, len(sa.Targets))
		tasks[i] = maintTask{ann: a, targets: make([]maintTarget, len(sa.Targets))}
		for j, tg := range sa.Targets {
			targets[j] = annotation.Target{Table: tg.Table, Row: tg.Row, Columns: tg.Cols}
			instances, ok := linked[tg.Table]
			if !ok {
				instances = db.cat.InstancesFor(tg.Table)
				linked[tg.Table] = instances
			}
			labels := sa.Labels
			if tg.Labels != nil {
				labels = maps.Clone(sa.Labels)
				if labels == nil {
					labels = make(map[string]int)
				}
				maps.Copy(labels, tg.Labels)
			}
			if err := checkLabels(instances, labels); err != nil {
				return fmt.Errorf("annotation %d: %w", sa.ID, err)
			}
			tasks[i].targets[j] = maintTarget{
				table: tg.Table, rows: []types.RowID{tg.Row}, cols: tg.Cols,
				instances: instances, labels: labels,
			}
		}
		if err := db.anns.Restore(a, targets); err != nil {
			return fmt.Errorf("annotation %d: %w", sa.ID, err)
		}
		if a.Created > db.annClock.Load() {
			db.annClock.Store(a.Created)
		}
	}
	db.applyTasks(tasks)
	return nil
}

// checkLabels rejects a recorded label that names a linked instance which
// is not a classifier, or an index outside its label set. Labels of
// instances not linked to the target's table are never read.
func checkLabels(instances []*summary.Instance, labels map[string]int) error {
	for _, in := range instances {
		l, ok := labels[in.Name]
		if !ok {
			continue
		}
		if in.Type != summary.TypeClassifier {
			return fmt.Errorf("label recorded for %s instance %q", in.Type, in.Name)
		}
		if n := len(in.Classifier.Labels()); l < 0 || l >= n {
			return fmt.Errorf("label index %d outside the %d labels of %q", l, n, in.Name)
		}
	}
	return nil
}

// LoadFile is Load from a file path.
func LoadFile(path string, cfg Config) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(bufio.NewReader(f), cfg)
}
