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

// ---- WAL records ----

// Record types. The payloads carry resolved effects (ids, post-images),
// making replay deterministic; see the package comment above. Row ingest
// (INSERT and BULK INSERT) and annotation ingest (one annotation or a
// batch) each write one type, whatever the size of the statement.
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
	// Retired: no longer written, still replayed — logs written before the
	// ingest paths were folded, and primaries of that vintage streaming to
	// this node as a replica, carry them. bulk_insert has the insert
	// payload; annotate_batch has the annotate payload.
	walTypeBulkInsertRetired    = "bulk_insert"
	walTypeAnnotateBatchRetired = "annotate_batch"
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

// walAnnotate carries one ingest's annotations in id order.
type walAnnotate struct {
	Anns []snapshotAnnotate `json:"anns,omitempty"`
	// Ann is the payload annotate records had while annotate_batch was a
	// type of its own: one annotation. Read, never written.
	Ann *snapshotAnnotate `json:"ann,omitempty"`
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
// is inside the commit shell, which takes the token (takePendingSync)
// before unlocking and calls syncWAL after, so concurrent writers share
// commit fsyncs (group commit) instead of serializing an fsync each under
// the exclusive lock. A nil WAL (no durability, or recovery replay in
// progress) is a no-op. On error the statement must be reported failed:
// the in-memory mutation was applied but is not durable, so the caller
// should treat the engine as compromised and restart from the log.
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

// walDecode unmarshals a record's payload as T.
func walDecode[T any](rec wal.Record) (T, error) {
	var r T
	err := json.Unmarshal(rec.Data, &r)
	return r, err
}

// applyWALRecord redoes one logical record: at recovery, and on a replica
// for every record the primary ships. Nothing here logs — recovery has no
// WAL attached yet, and a replica stages the primary's record itself.
func (db *DB) applyWALRecord(rec wal.Record) error {
	switch rec.Type {
	case walTypeCreateTable:
		r, err := walDecode[walCreateTable](rec)
		if err != nil {
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
		_, err = db.cat.CreateTable(r.Name, types.Schema{Columns: cols})
		return err
	case walTypeCreateIndex:
		r, err := walDecode[walCreateIndex](rec)
		if err != nil {
			return err
		}
		tbl, err := db.cat.Table(r.Table)
		if err != nil {
			return err
		}
		db.invalidatePlanCache()
		return tbl.CreateIndex(r.Column)
	case walTypeDropTable:
		r, err := walDecode[walDropTable](rec)
		if err != nil {
			return err
		}
		db.invalidatePlanCache()
		return db.dropTable(r.Name)
	case walTypeInsert, walTypeBulkInsertRetired, walTypeUpdate:
		r, err := walDecode[walRows](rec)
		if err != nil {
			return err
		}
		tbl, err := db.cat.Table(r.Table)
		if err != nil {
			return err
		}
		apply := tbl.InsertWithID
		if rec.Type == walTypeUpdate {
			apply = tbl.Update
		}
		for _, row := range r.Rows {
			if err := apply(row.ID, row.Values); err != nil {
				return err
			}
		}
		return nil
	case walTypeDelete:
		r, err := walDecode[walDelete](rec)
		if err != nil {
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
		r, err := walDecode[walCreateInstance](rec)
		if err != nil {
			return err
		}
		in := new(summary.Instance)
		if err := json.Unmarshal(r.Instance, in); err != nil {
			return err
		}
		return db.cat.RegisterInstance(in)
	case walTypeDropInstance:
		r, err := walDecode[walDropInstance](rec)
		if err != nil {
			return err
		}
		db.invalidatePlanCache()
		return db.dropInstance(r.Name)
	case walTypeLink:
		r, err := walDecode[walLink](rec)
		if err != nil {
			return err
		}
		return db.setLink(r.Instance, r.Table, r.Unlink)
	case walTypeAnnotate, walTypeAnnotateBatchRetired:
		r, err := walDecode[walAnnotate](rec)
		if err != nil {
			return err
		}
		if r.Ann != nil {
			r.Anns = append(r.Anns, *r.Ann)
		}
		for _, sa := range r.Anns {
			if err := db.restoreAnnotation(sa); err != nil {
				return err
			}
		}
		return nil
	case walTypeDropAnnotation:
		r, err := walDecode[walDropAnnotation](rec)
		if err != nil {
			return err
		}
		return db.dropAnnotation(r.ID)
	case walTypeTrain:
		r, err := walDecode[walTrain](rec)
		if err != nil {
			return err
		}
		return db.trainClassifier(r.Instance, r.Samples)
	default:
		return fmt.Errorf("engine: unknown wal record type %q", rec.Type)
	}
}
