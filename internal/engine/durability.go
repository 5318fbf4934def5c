package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"insightnotes/internal/annotation"
	"insightnotes/internal/failpoint"
	"insightnotes/internal/metrics"
	"insightnotes/internal/summary"
	"insightnotes/internal/trace"
	"insightnotes/internal/types"
	"insightnotes/internal/wal"
)

// Durability: the raw annotations are the paper's durable source of
// truth — summary objects are derived, incrementally maintained views
// over them — so the mutation path must survive process kills and torn
// writes. OpenDurable pairs the existing full-state snapshot with a
// write-ahead log of logical mutation records: every mutating statement
// appends one fsynced record before acknowledging, startup recovers by
// loading the latest snapshot and replaying the WAL tail (truncating
// cleanly at a torn record), and CHECKPOINT (manual or size-triggered)
// rewrites the snapshot and rotates the log.
//
// Record ordering: a mutation is applied in memory first, then logged,
// then acknowledged. Records carry fully resolved effects — assigned row
// ids, annotation ids, matched target rows, post-image values — so
// replay is deterministic regardless of what the original WHERE clauses
// would match against a recovered state.

// Default auto-checkpoint threshold when DurabilityOptions leaves it 0.
const defaultAutoCheckpointBytes = 8 << 20

// snapshotFileName / walFileName are the fixed layout of a data directory.
const (
	snapshotFileName = "snapshot.json"
	walFileName      = "wal.log"
	pageFileName     = "pages.db"
)

// DurabilityOptions configures OpenDurable.
type DurabilityOptions struct {
	// Dir is the data directory holding snapshot.json and wal.log
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
// dir/snapshot.json when present, replays the dir/wal.log tail past the
// snapshot's LSN — truncating a torn final record rather than failing —
// and attaches the log so every subsequent mutation is fsynced before it
// is acknowledged.
func OpenDurable(cfg Config, opts DurabilityOptions) (*DB, RecoveryInfo, error) {
	var info RecoveryInfo
	if opts.Dir == "" {
		return nil, info, fmt.Errorf("engine: durability requires a data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, info, err
	}
	// Durable databases page through a file-backed store in the data
	// directory by default, so heap pages are not bound by RAM. The file is
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

	res, err := wal.Replay(walPath, info.SnapshotLSN, db.applyWALRecord)
	if err != nil {
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

// Checkpoint persists a snapshot of the full state to the data directory
// and rotates the WAL. Crash orderings are safe: the snapshot is
// published by atomic rename, and a crash between the rename and the log
// reset only leaves stale records that recovery skips by LSN.
func (db *DB) Checkpoint() (CheckpointInfo, error) {
	if db.wal == nil {
		return CheckpointInfo{}, fmt.Errorf("engine: CHECKPOINT requires durability (open with a data directory)")
	}
	return db.checkpoint(0)
}

// checkpoint is Checkpoint for a WAL of at least minWALBytes, measured
// under the statement lock; a shorter log is left alone.
func (db *DB) checkpoint(minWALBytes int64) (CheckpointInfo, error) {
	var ci CheckpointInfo
	start := time.Now()
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	if db.wal.Size() < minWALBytes {
		return ci, nil
	}
	ci.LSN = db.wal.LastLSN()
	ci.ReleasedWALBytes = db.wal.Size()
	snapPath := filepath.Join(db.walDir, snapshotFileName)
	if err := db.snapshotToFile(snapPath, ci.LSN); err != nil {
		return ci, fmt.Errorf("engine: checkpoint: %w", err)
	}
	if st, err := os.Stat(snapPath); err == nil {
		ci.SnapshotBytes = st.Size()
	}
	// The snapshot is published. From here a crash is recoverable even if
	// the log rotation below never happens (LSN skip) — modeled by the
	// after-rename failpoint.
	if err := failpoint.Eval(failpoint.CheckpointAfterRename); err != nil {
		return ci, fmt.Errorf("engine: checkpoint: %w", err)
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
// statement lock, so the size test here only keeps statements off that
// lock; checkpoint repeats it under the lock, and of several statements
// that cross the threshold together only the first serialises the
// database. Errors are reported on stderr rather than failing the
// triggering statement — the durability of already-acknowledged records
// is unaffected by a failed checkpoint.
func (db *DB) maybeAutoCheckpoint() {
	if db.wal == nil || db.autoCkptBytes <= 0 || db.wal.Size() < db.autoCkptBytes {
		return
	}
	if _, err := db.checkpoint(db.autoCkptBytes); err != nil {
		fmt.Fprintf(os.Stderr, "insightnotes: auto-checkpoint: %v\n", err)
	}
}

// ---- WAL records ----

// Record types. The payloads carry resolved effects (ids, post-images),
// making replay deterministic; see the package comment above.
const (
	walTypeCreateTable    = "create_table"
	walTypeCreateIndex    = "create_index"
	walTypeDropTable      = "drop_table"
	walTypeInsert         = "insert"
	walTypeUpdate         = "update"
	walTypeDelete         = "delete"
	walTypeCreateInstance = "create_instance"
	walTypeDropInstance   = "drop_instance"
	walTypeLink           = "link"
	walTypeAnnotate       = "annotate"
	walTypeDropAnnotation = "drop_annotation"
	walTypeTrain          = "train"
	// Batched bulk-ingest records: one record carries a whole BULK INSERT
	// (walRows payload) or a whole AnnotateBatch (walAnnotateBatch), so the
	// WAL write and commit fsync are paid once per batch.
	walTypeBulkInsert    = "bulk_insert"
	walTypeAnnotateBatch = "annotate_batch"
)

type walCreateTable struct {
	Name    string           `json:"name"`
	Columns []snapshotColumn `json:"columns"`
}

type walCreateIndex struct {
	Table  string `json:"table"`
	Column string `json:"column"`
}

type walDropTable struct {
	Name string `json:"name"`
}

// walRows serves insert (assigned ids) and update (post-images).
type walRows struct {
	Table string        `json:"table"`
	Rows  []snapshotRow `json:"rows"`
}

type walDelete struct {
	Table string        `json:"table"`
	Rows  []types.RowID `json:"rows"`
}

type walCreateInstance struct {
	// Instance is the summary.Instance JSON at creation time (untrained;
	// later TRAIN records replay the training).
	Instance json.RawMessage `json:"instance"`
}

type walDropInstance struct {
	Name string `json:"name"`
}

type walLink struct {
	Instance string `json:"instance"`
	Table    string `json:"table"`
	Unlink   bool   `json:"unlink,omitempty"`
}

type walAnnotate struct {
	Ann snapshotAnnotate `json:"ann"`
}

type walAnnotateBatch struct {
	Anns []snapshotAnnotate `json:"anns"`
}

type walDropAnnotation struct {
	ID annotation.ID `json:"id"`
}

type walTrain struct {
	Instance string      `json:"instance"`
	Samples  [][2]string `json:"samples"`
}

// logRecord stages one mutation record into the WAL without waiting for
// its commit fsync, parking the sync token in db.pendingSync. The caller
// holds stmtMu exclusively; the statement entry point takes the token
// (takePendingSync) before unlocking and calls syncWAL after, so
// concurrent writers share commit fsyncs (group commit) instead of
// serializing an fsync each under the exclusive lock. A nil WAL (no
// durability, or recovery replay in progress) is a no-op. On error the
// statement must be reported failed: the in-memory mutation was applied
// but is not durable, so the caller should treat the engine as
// compromised and restart from the log.
func (db *DB) logRecord(recType string, data any) error {
	if db.wal == nil {
		return nil
	}
	sp := db.writeSpan.Child(trace.SpanWALAppend)
	sp.Attr("rec", recType)
	_, tok, err := db.wal.Stage(recType, data)
	sp.End()
	if err != nil {
		return fmt.Errorf("engine: wal append (%s): %w", recType, err)
	}
	db.pendingSync = tok
	return nil
}

// takePendingSync returns and clears the token of the record staged by
// the current statement. Must be called while still holding stmtMu
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

// applyWALRecord replays one logical record during recovery. The WAL is
// not yet attached, so nothing here re-logs.
func (db *DB) applyWALRecord(rec wal.Record) error {
	switch rec.Type {
	case walTypeCreateTable:
		var r walCreateTable
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		cols := make([]types.Column, len(r.Columns))
		for i, c := range r.Columns {
			cols[i] = types.Column{Name: c.Name, Kind: c.Kind}
		}
		// Replayed DDL invalidates cached plans just like the statement
		// path does — read replicas apply these records while serving
		// cached SELECTs. Startup recovery starts with an empty cache, so
		// the calls are free there. Same below for index/drop records.
		db.invalidatePlanCache()
		_, err := db.cat.CreateTable(r.Name, types.Schema{Columns: cols})
		return err
	case walTypeCreateIndex:
		var r walCreateIndex
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		tbl, err := db.cat.Table(r.Table)
		if err != nil {
			return err
		}
		db.invalidatePlanCache()
		return tbl.CreateIndex(r.Column)
	case walTypeDropTable:
		var r walDropTable
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		db.invalidatePlanCache()
		return db.dropTable(r.Name)
	case walTypeInsert, walTypeBulkInsert:
		var r walRows
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		tbl, err := db.cat.Table(r.Table)
		if err != nil {
			return err
		}
		for _, row := range r.Rows {
			if err := tbl.InsertWithID(row.ID, types.Tuple(row.Values)); err != nil {
				return err
			}
		}
		return nil
	case walTypeUpdate:
		var r walRows
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		tbl, err := db.cat.Table(r.Table)
		if err != nil {
			return err
		}
		for _, row := range r.Rows {
			if err := tbl.Update(row.ID, types.Tuple(row.Values)); err != nil {
				return err
			}
		}
		return nil
	case walTypeDelete:
		var r walDelete
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		tbl, err := db.cat.Table(r.Table)
		if err != nil {
			return err
		}
		for _, row := range r.Rows {
			if _, err := db.deleteRow(tbl, row); err != nil {
				return err
			}
		}
		return nil
	case walTypeCreateInstance:
		var r walCreateInstance
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		in := new(summary.Instance)
		if err := json.Unmarshal(r.Instance, in); err != nil {
			return err
		}
		return db.cat.RegisterInstance(in)
	case walTypeDropInstance:
		var r walDropInstance
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		db.invalidatePlanCache()
		return db.dropInstance(r.Name)
	case walTypeLink:
		var r walLink
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		if r.Unlink {
			return db.unlinkInstance(r.Instance, r.Table)
		}
		return db.linkInstance(r.Instance, r.Table)
	case walTypeAnnotate:
		var r walAnnotate
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		sa := r.Ann
		a := annotation.Annotation{
			ID: sa.ID, Author: sa.Author, Created: sa.Created,
			Text: sa.Text, Title: sa.Title, Document: sa.Document,
		}
		targets := make([]annotation.Target, len(sa.Targets))
		for i, tg := range sa.Targets {
			targets[i] = annotation.Target{Table: tg.Table, Row: tg.Row, Columns: tg.Cols}
		}
		return db.restoreAnnotation(a, targets)
	case walTypeAnnotateBatch:
		var r walAnnotateBatch
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		for _, sa := range r.Anns {
			a := annotation.Annotation{
				ID: sa.ID, Author: sa.Author, Created: sa.Created,
				Text: sa.Text, Title: sa.Title, Document: sa.Document,
			}
			targets := make([]annotation.Target, len(sa.Targets))
			for i, tg := range sa.Targets {
				targets[i] = annotation.Target{Table: tg.Table, Row: tg.Row, Columns: tg.Cols}
			}
			if err := db.restoreAnnotation(a, targets); err != nil {
				return err
			}
		}
		return nil
	case walTypeDropAnnotation:
		var r walDropAnnotation
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		return db.dropAnnotation(r.ID)
	case walTypeTrain:
		var r walTrain
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		return db.trainClassifier(r.Instance, r.Samples)
	default:
		return fmt.Errorf("engine: unknown wal record type %q", rec.Type)
	}
}
