package engine

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"insightnotes/internal/codec"
	"insightnotes/internal/metrics"
	"insightnotes/internal/summary"
	"insightnotes/internal/trace"
	"insightnotes/internal/types"
	"insightnotes/internal/wal"
)

// Durability: the raw annotations and the summary objects maintained over
// them are the paper's stored state, so the mutation path must survive
// process kills and torn writes. OpenDurable pairs a full-state
// checkpoint, summary objects included, with a write-ahead log
// of logical mutation records: every mutating statement appends one
// fsynced record before acknowledging, startup recovers by loading the
// latest checkpoint and replaying the WAL tail (truncating cleanly at a
// torn record), and CHECKPOINT (manual or size-triggered) rewrites the
// checkpoint and rotates the log. Both hold the same records in the same
// frames (see persist.go), and both are redone by redo.
//
// Record ordering: resolve → record → apply → log. A mutation resolves
// every step that can fail (WHERE matches, validated post-images, ids,
// timestamps), builds its record from the result, applies it, logs it,
// and is acknowledged after the fsync. Redo is apply on the same record,
// so replay never re-evaluates a WHERE clause; only a page-file I/O fault
// can fail apply midway, and the record is then not logged.

// Default auto-checkpoint threshold when DurabilityOptions leaves it 0.
const defaultAutoCheckpointBytes = 8 << 20

// snapshotFileName / walFileName are the fixed layout of a data directory.
// The checkpoint keeps the name snapshot.json, though it is no longer
// JSON, because tools copy a data directory's files by name.
const (
	snapshotFileName = "snapshot.json"
	walFileName      = "wal.log"
	pageFileName     = "pages.db"
)

// DurabilityOptions configures OpenDurable.
type DurabilityOptions struct {
	// Dir is the data directory holding the checkpoint and wal.log
	// (created if missing).
	Dir string
	// AutoCheckpointBytes triggers a checkpoint when the WAL reaches this
	// size (checked after each statement). 0 means the default (8 MiB);
	// negative disables auto-checkpointing.
	AutoCheckpointBytes int64
}

// RecoveryInfo reports what OpenDurable found and did.
type RecoveryInfo struct {
	// SnapshotLoaded is true when a snapshot file existed and was loaded.
	SnapshotLoaded bool
	// SnapshotLSN is the WAL position the loaded snapshot included.
	SnapshotLSN uint64
	// Replayed / Skipped count WAL records applied and records skipped
	// because the snapshot already included them.
	Replayed, Skipped int
	// TornTruncated is true when the log ended in a torn or corrupt
	// record that was truncated away at TornOffset.
	TornTruncated bool
	TornOffset    int64
}

// String renders the recovery outcome for startup logs.
func (ri RecoveryInfo) String() string {
	src := "fresh state"
	if ri.SnapshotLoaded {
		src = fmt.Sprintf("snapshot (lsn %d)", ri.SnapshotLSN)
	}
	out := fmt.Sprintf("recovered from %s, %d wal record(s) replayed, %d skipped", src, ri.Replayed, ri.Skipped)
	if ri.TornTruncated {
		out += fmt.Sprintf("; torn wal tail truncated at byte %d", ri.TornOffset)
	}
	return out
}

// CheckpointInfo reports one completed checkpoint.
type CheckpointInfo struct {
	// LSN is the WAL position the snapshot includes.
	LSN uint64
	// SnapshotBytes is the size of the written snapshot file.
	SnapshotBytes int64
	// ReleasedWALBytes is the log size reclaimed by the rotation.
	ReleasedWALBytes int64
}

// OpenDurable opens (or creates) a crash-safe database in dir: it loads
// the checkpoint dir/snapshot.json when present, replays the dir/wal.log
// tail past the checkpoint's LSN — truncating a torn final record rather
// than failing — and attaches the log so every subsequent mutation is
// fsynced before it is acknowledged.
func OpenDurable(cfg Config, opts DurabilityOptions) (*DB, RecoveryInfo, error) {
	var info RecoveryInfo
	if opts.Dir == "" {
		return nil, info, fmt.Errorf("engine: durability requires a data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, info, err
	}
	// Durable databases page annotation text through a file-backed store in
	// the data directory by default, so it is not bound by RAM. The file is
	// recreated on open (see Config.PageFile); only the snapshot and WAL
	// carry recovery state.
	if cfg.PageFile == "" {
		cfg.PageFile = filepath.Join(opts.Dir, pageFileName)
	}
	snapPath := filepath.Join(opts.Dir, snapshotFileName)
	walPath := filepath.Join(opts.Dir, walFileName)

	var db *DB
	var err error
	if _, statErr := os.Stat(snapPath); statErr == nil {
		db, err = LoadFile(snapPath, cfg)
		if err != nil {
			return nil, info, err
		}
		info.SnapshotLoaded = true
		info.SnapshotLSN = db.recoveredLSN
	} else {
		db, err = Open(cfg)
		if err != nil {
			return nil, info, err
		}
	}

	rd := redo{db: db}
	db.redoing = true
	res, err := wal.Replay(walPath, info.SnapshotLSN, rd.apply)
	if err == nil {
		err = rd.flush()
	}
	db.redoing = false
	if err != nil {
		db.Close()
		return nil, info, fmt.Errorf("engine: wal recovery: %w", err)
	}
	info.Replayed = res.Replayed
	info.Skipped = res.Skipped
	info.TornTruncated = res.Torn
	info.TornOffset = res.TornOffset

	lastLSN := res.LastLSN
	if info.SnapshotLSN > lastLSN {
		lastLSN = info.SnapshotLSN
	}
	log, err := wal.Open(walPath, lastLSN)
	if err != nil {
		db.Close()
		return nil, info, err
	}
	db.attachWAL(opts, log, info)
	return db, info, nil
}

// attachWAL arms the durability path after recovery and registers the
// WAL metric families.
func (db *DB) attachWAL(opts DurabilityOptions, log *wal.Log, info RecoveryInfo) {
	db.wal = log
	db.walDir = opts.Dir
	db.recovery = info
	switch {
	case opts.AutoCheckpointBytes > 0:
		db.autoCkptBytes = opts.AutoCheckpointBytes
	case opts.AutoCheckpointBytes == 0:
		db.autoCkptBytes = defaultAutoCheckpointBytes
	default:
		db.autoCkptBytes = 0 // disabled
	}
	m := db.metrics
	if m == nil {
		return
	}
	reg := m.reg
	reg.CounterFunc(metrics.NameWALAppendsTotal, "WAL records committed (fsynced).",
		func() float64 { return float64(log.Stats().Appends) })
	reg.CounterFunc(metrics.NameWALAppendErrorsTotal, "WAL appends that failed.",
		func() float64 { return float64(log.Stats().AppendErrors) })
	reg.CounterFunc(metrics.NameWALBytesTotal, "Framed WAL bytes committed.",
		func() float64 { return float64(log.Stats().BytesWritten) })
	reg.GaugeFunc(metrics.NameWALSizeBytes, "Current WAL file size.",
		func() float64 { return float64(log.Size()) })
	reg.GaugeFunc(metrics.NameWALLastLSN, "LSN of the last committed WAL record.",
		func() float64 { return float64(log.LastLSN()) })
	fsync := reg.Histogram(metrics.NameWALFsyncSeconds,
		"WAL commit fsync latency in seconds.", metrics.DefLatencyBuckets)
	log.FsyncObserver = func(d time.Duration) { fsync.Observe(d.Seconds()) }
	reg.CounterFunc(metrics.NameWALGroupCommitBatchesTotal,
		"Group-commit batches (commit fsyncs that made records durable).",
		func() float64 { return float64(log.Stats().GroupCommitBatches) })
	reg.CounterFunc(metrics.NameWALGroupCommitRecordsTotal,
		"Records that shared their commit fsync with at least one other record.",
		func() float64 { return float64(log.Stats().GroupCommitRecords) })
	db.ckptTotal = reg.Counter(metrics.NameWALCheckpointsTotal,
		"Checkpoints taken (manual CHECKPOINT and size-triggered).")
	db.ckptSeconds = reg.Histogram(metrics.NameWALCheckpointSeconds,
		"Checkpoint duration in seconds.", metrics.DefLatencyBuckets)
	reg.GaugeFunc(metrics.NameWALRecoveryReplayed, "WAL records replayed at the last startup.",
		func() float64 { return float64(db.recovery.Replayed) })
	reg.GaugeFunc(metrics.NameWALRecoverySkipped, "Stale WAL records skipped by LSN at the last startup.",
		func() float64 { return float64(db.recovery.Skipped) })
	reg.CounterFunc(metrics.NameWALRecoveryTornTotal, "Torn WAL tails truncated at startup.",
		func() float64 {
			if db.recovery.TornTruncated {
				return 1
			}
			return 0
		})
	reg.CounterFunc(metrics.NameWALSnapshotLoadedTotal, "Startups that recovered from a snapshot.",
		func() float64 {
			if db.recovery.SnapshotLoaded {
				return 1
			}
			return 0
		})
}

// Durable reports whether the DB runs with a write-ahead log attached.
func (db *DB) Durable() bool { return db.wal != nil }

// Checkpoint persists the full state to the data directory and rotates the
// WAL. Crash orderings are safe: the checkpoint is published by atomic
// rename and a directory fsync before the log is reset, and a crash
// between the two only leaves stale records that recovery skips by LSN.
func (db *DB) Checkpoint() (ci CheckpointInfo, err error) {
	err = db.commit(nil, func() error {
		ci, err = db.checkpointLocked()
		return err
	})
	return ci, err
}

// checkpointLocked is Checkpoint under the exclusive statement lock, which
// callers hold.
func (db *DB) checkpointLocked() (CheckpointInfo, error) {
	var ci CheckpointInfo
	if db.wal == nil {
		return ci, fmt.Errorf("engine: CHECKPOINT requires durability (open with a data directory)")
	}
	start := time.Now()
	ci.LSN = db.wal.LastLSN()
	ci.ReleasedWALBytes = db.wal.Size()
	snapPath := filepath.Join(db.walDir, snapshotFileName)
	if err := publishCheckpoint(snapPath, func(w io.Writer) error { return db.writeCheckpoint(w, ci.LSN) }); err != nil {
		return ci, fmt.Errorf("engine: checkpoint: %w", err)
	}
	if st, err := os.Stat(snapPath); err == nil {
		ci.SnapshotBytes = st.Size()
	}
	if err := db.wal.Reset(ci.LSN); err != nil {
		return ci, fmt.Errorf("engine: checkpoint wal rotation: %w", err)
	}
	db.ckptTotal.Inc()
	db.ckptSeconds.Observe(time.Since(start).Seconds())
	return ci, nil
}

// maybeAutoCheckpoint runs a checkpoint when the WAL has outgrown the
// configured threshold. Called after each statement, outside the
// statement lock, so the first size test only keeps statements off that
// lock; it is repeated under the lock, and of several statements that
// cross the threshold together only the first serialises the database.
// Errors are reported on stderr rather than failing the triggering
// statement — the durability of already-acknowledged records is
// unaffected by a failed checkpoint.
func (db *DB) maybeAutoCheckpoint() {
	if db.wal == nil || db.autoCkptBytes <= 0 || db.wal.Size() < db.autoCkptBytes {
		return
	}
	err := db.commit(nil, func() error {
		if db.wal.Size() < db.autoCkptBytes {
			return nil
		}
		_, err := db.checkpointLocked()
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "insightnotes: auto-checkpoint: %v\n", err)
	}
}

// mutate applies one resolved record and then stages it into the WAL: the
// last two steps of every mutation, after its resolution has done every
// step that can fail. It returns apply's count.
func (db *DB) mutate(recType string, p walPayload) (int, error) {
	n, err := db.apply(recType, p)
	if err != nil {
		return 0, err
	}
	return n, db.logRecord(recType, p)
}

// commitRecord is mutate inside the commit shell: the whole of a
// programmatic mutator whose record needs no resolution.
func (db *DB) commitRecord(recType string, p walPayload) (n int, err error) {
	err = db.commit(nil, func() error {
		n, err = db.mutate(recType, p)
		return err
	})
	return n, err
}

// logRecord stages one applied record into the WAL without waiting for
// its commit fsync, parking the sync token in db.pendingSync. The caller
// is inside the commit shell, which takes the token (takePendingSync)
// before unlocking and calls syncWAL after, so concurrent writers share
// commit fsyncs (group commit) instead of serializing an fsync each under
// the exclusive lock. A nil WAL (no durability) is a no-op. On error the
// statement must be reported failed: the in-memory mutation was applied
// but is not durable, so the caller should treat the engine as
// compromised and restart from the log.
func (db *DB) logRecord(recType string, p walPayload) error {
	if db.wal == nil {
		return nil
	}
	sp := db.writeSpan.Child(trace.SpanWALAppend)
	sp.Attr("rec", recType)
	w := codec.NewWriter(db.walBuf[:0])
	p.encode(w)
	db.walBuf = w.Bytes()
	_, tok, err := db.wal.Stage(recType, db.walBuf)
	sp.End()
	if err != nil {
		return fmt.Errorf("engine: wal append (%s): %w", recType, err)
	}
	db.pendingSync = tok
	return nil
}

// takePendingSync returns and clears the token of the record staged by
// the current mutation. Must be called while still holding stmtMu
// exclusively (the field is guarded by it).
func (db *DB) takePendingSync() wal.SyncToken {
	tok := db.pendingSync
	db.pendingSync = wal.SyncToken{}
	return tok
}

// syncWAL waits until the staged record behind tok is durable, sharing
// the commit fsync with concurrent committers. Called after stmtMu is
// released; the zero token (read-only statement, no WAL, failed before
// staging) is a no-op.
func (db *DB) syncWAL(tok wal.SyncToken) error {
	if db.wal == nil {
		return nil
	}
	if err := db.wal.Sync(tok); err != nil {
		return fmt.Errorf("engine: wal sync: %w", err)
	}
	return nil
}

// redo applies a record stream — a checkpoint, or the log replayed at
// recovery — by decoding each record and handing it to apply. In a
// checkpoint, annotate records restore the raw annotations only and summary
// records install the stored envelopes, so nothing is summarized. In the
// log, consecutive annotate records are held back and applied as one,
// maintained as a single ingest's are; any other record flushes them
// first, so a batch never spans a train record, nor a change to the rows
// it targets.
type redo struct {
	db         *DB
	checkpoint bool
	anns       []walAnnotation
}

func (rd *redo) apply(rec wal.Record) error {
	p, err := decodeRecord(rec.Type, rec.Data)
	if err != nil {
		return err
	}
	switch r := p.(type) {
	case *walAnnotate:
		if rd.checkpoint {
			return rd.db.restoreAnnotations(r.Anns)
		}
		rd.anns = append(rd.anns, r.Anns...)
		return nil
	case *walSummaries:
		if rd.checkpoint {
			return rd.db.installSummaries(r)
		}
	}
	if err := rd.flush(); err != nil {
		return err
	}
	_, err = rd.db.apply(rec.Type, p)
	return err
}

// flush applies the held annotations.
func (rd *redo) flush() error {
	if len(rd.anns) == 0 {
		return nil
	}
	p := &walAnnotate{Anns: rd.anns}
	rd.anns = nil
	_, err := rd.db.apply(walTypeAnnotate, p)
	return err
}

// apply is the one code that changes logical state for a record type. A
// statement or a programmatic mutator resolves its effects into a record
// and applies it through mutate; recovery and a replica decode the logged
// record and apply it here too, so all three run the same lines. It
// returns orphaned annotations for delete, summarization steps for
// rebuild, 0 otherwise. A record naming what does not exist is refused
// as corrupt. Nothing here logs. Callers hold the statement lock.
func (db *DB) apply(recType string, p walPayload) (int, error) {
	switch r := p.(type) {
	case *walCreateTable:
		// DDL invalidates cached plans: read replicas apply these records
		// while serving cached SELECTs. Startup recovery starts with an
		// empty cache, so the calls are free there. Same below for index,
		// drop and instance records.
		db.invalidatePlanCache()
		_, err := db.cat.CreateTable(r.Name, types.Schema{Columns: r.Columns})
		return 0, err
	case *walCreateIndex:
		tbl, err := db.cat.Table(r.Table)
		if err != nil {
			return 0, err
		}
		db.invalidatePlanCache()
		return 0, tbl.CreateIndex(r.Column)
	case *walName:
		switch recType {
		case walTypeDropTable:
			db.invalidatePlanCache()
			return 0, db.dropTable(r.Name)
		case walTypeDropInstance:
			// Cached SELECT templates may carry SUMMARY(...) calls
			// resolved against this instance at plan time.
			db.invalidatePlanCache()
			return 0, db.dropInstance(r.Name)
		}
		return db.rebuildSummaries(r.Name)
	case *walRows:
		tbl, err := db.cat.Table(r.Table)
		if err != nil {
			return 0, err
		}
		put := tbl.InsertWithID
		if recType == walTypeUpdate {
			put = tbl.Update
		}
		for _, row := range r.Rows {
			if err := put(row.ID, row.Values); err != nil {
				return 0, err
			}
		}
		return 0, nil
	case *walDelete:
		return db.deleteRows(r.Table, r.Rows)
	case *walCreateInstance:
		return 0, db.cat.RegisterInstance(r.Instance)
	case *walLink:
		if r.Unlink {
			return 0, db.unlinkInstance(r.Instance, r.Table)
		}
		return 0, db.linkInstance(r.Instance, r.Table)
	case *walAnnotate:
		return 0, db.applyAnnotates(r.Anns)
	case *walDropAnnotation:
		if db.redoing && db.detached[r.ID] {
			return 0, nil
		}
		return 0, db.dropAnnotation(r.ID)
	case *walTrain:
		return 0, db.trainClassifier(r.Instance, r.Samples)
	}
	return 0, fmt.Errorf("engine: no apply for wal record type %q", recType)
}

// restoreAnnotations re-adds annotations under their resolved ids. It
// refuses an annotation with no id or no targets, or one targeting a
// table or row that does not exist: a record naming them is corrupt,
// whether it comes from a statement, a checkpoint, the log or a primary.
func (db *DB) restoreAnnotations(anns []walAnnotation) error {
	for _, wa := range anns {
		if wa.ID <= 0 {
			return fmt.Errorf("annotation with invalid id %d", wa.ID)
		}
		if len(wa.Targets) == 0 {
			return fmt.Errorf("annotation %d has no targets", wa.ID)
		}
		for _, tg := range wa.Targets {
			tbl, err := db.cat.Table(tg.Table)
			if err != nil {
				return fmt.Errorf("annotation %d targets unknown table %q", wa.ID, tg.Table)
			}
			if _, err := tbl.Get(tg.Row); err != nil {
				return fmt.Errorf("annotation %d targets missing row %d of %q", wa.ID, tg.Row, tg.Table)
			}
		}
		if err := db.anns.Restore(wa.Annotation, wa.Targets); err != nil {
			return fmt.Errorf("annotation %d: %w", wa.ID, err)
		}
		if wa.Created > db.annClock.Load() {
			db.annClock.Store(wa.Created)
		}
	}
	return nil
}

// applyAnnotates restores annotations and maintains their summaries as one
// batch: through maintain for a statement, which may defer the batch in
// degraded mode, and synchronously while redoing, so that recovery ends
// and a replica serves with its summaries caught up.
func (db *DB) applyAnnotates(anns []walAnnotation) error {
	if err := db.restoreAnnotations(anns); err != nil {
		return err
	}
	tasks := db.annotationTasks(anns)
	if db.redoing {
		db.applyTasks(tasks)
	} else {
		db.maintain(tasks)
	}
	return nil
}

// annotationTasks turns resolved annotations into maintenance tasks, one
// per annotation and one target per scope: a statement's annotation keeps
// each scope's matched rows in one target (walAnnotation.scopes), a logged
// one has a target per row.
func (db *DB) annotationTasks(anns []walAnnotation) []maintTask {
	tasks := make([]maintTask, len(anns))
	linked := make(map[string][]*summary.Instance)
	for i, wa := range anns {
		tasks[i].ann = wa.Annotation
		scopes := wa.scopes
		for t := 0; t < len(wa.Targets); {
			n := 1
			if len(scopes) > 0 {
				n, scopes = scopes[0], scopes[1:]
			}
			tg := wa.Targets[t]
			rows := make([]types.RowID, n)
			for j := range rows {
				rows[j] = wa.Targets[t+j].Row
			}
			instances, ok := linked[tg.Table]
			if !ok {
				instances = db.cat.InstancesFor(tg.Table)
				linked[tg.Table] = instances
			}
			tasks[i].targets = append(tasks[i].targets, maintTarget{table: tg.Table, rows: rows, cols: tg.Columns, instances: instances})
			t += n
		}
	}
	return tasks
}

// installSummaries installs a checkpoint's stored envelopes: each must
// belong to a row of the table that has none yet, and name only instances
// linked to the table (see summary.DecodeEnvelope for the rest).
func (db *DB) installSummaries(p *walSummaries) error {
	tbl, err := db.cat.Table(p.Table)
	if err != nil {
		return fmt.Errorf("envelopes of unknown table %q", p.Table)
	}
	instances := db.cat.InstancesFor(p.Table)
	linked := func(name string) *summary.Instance {
		for _, in := range instances {
			if in.Name == name {
				return in
			}
		}
		return nil
	}
	for _, e := range p.Envs {
		if _, err := tbl.Get(e.Row); err != nil {
			return fmt.Errorf("an envelope for missing row %d of %q", e.Row, p.Table)
		}
		env, err := summary.DecodeEnvelope(e.Body, linked)
		if err != nil {
			return fmt.Errorf("row %d of %q: %w", e.Row, p.Table, err)
		}
		if !db.envs.install(p.Table, e.Row, env) {
			return fmt.Errorf("a second envelope for row %d of %q", e.Row, p.Table)
		}
	}
	return nil
}
