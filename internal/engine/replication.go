package engine

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"

	"insightnotes/internal/annotation"
	"insightnotes/internal/catalog"
	"insightnotes/internal/failpoint"
	"insightnotes/internal/wal"
)

// Replication support: the engine side of WAL shipping. The primary's
// sender (internal/replication) tails the WAL file directly — nothing
// here sits on the commit path — and needs only a consistent checkpoint
// for replicas too far behind a rotated log. The replica side
// applies shipped records through the same logical redo path recovery
// uses, and persists them into its own WAL under the primary's LSNs so a
// restart resumes from exactly what it last made durable.

// WAL exposes the attached write-ahead log (nil without durability). The
// replication sender uses it to tail the durable frontier.
func (db *DB) WAL() *wal.Log { return db.wal }

// ReplicationPosition returns the LSN of the last record this database
// has staged to its local WAL — the position a replica resumes streaming
// from after a restart.
func (db *DB) ReplicationPosition() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.LastLSN()
}

// ReplicationSnapshot writes a checkpoint to w marked with the current WAL
// position — the same stream CHECKPOINT publishes — for resyncing a
// replica that fell behind a rotated log. It holds the shared statement
// lock: concurrent reads proceed, writes wait for the duration of the
// serialization.
func (db *DB) ReplicationSnapshot(w io.Writer) (uint64, error) {
	if db.wal == nil {
		return 0, fmt.Errorf("engine: replication snapshot requires durability")
	}
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	// Writers are excluded, so the WAL tip cannot move while the state is
	// serialized: the LSN mark and the snapshot contents agree.
	lsn := db.wal.LastLSN()
	if err := db.writeCheckpoint(w, lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// ApplyReplicated applies a batch of replicated WAL records: each record
// is decoded and applied as recovery and the original statement apply it,
// then staged into the replica's own WAL under the primary's LSN; one
// shared commit fsync at the end makes the batch durable. Records at or
// below the local WAL position are skipped — after a crash between apply
// and ack the primary resends them, and idempotence comes from the LSN,
// exactly as in recovery replay. The fp/replication/apply crash point
// models the replica process dying mid-batch: the WAL handle is killed
// and the error is returned for the receiver to treat as process death.
func (db *DB) ApplyReplicated(recs []wal.Record) error {
	if db.wal == nil {
		return fmt.Errorf("engine: replica apply requires durability")
	}
	if len(recs) == 0 {
		return nil
	}
	var tok wal.SyncToken
	err := func() error {
		db.stmtMu.Lock()
		db.redoing = true
		defer func() {
			db.redoing = false
			db.stmtMu.Unlock()
		}()
		for _, rec := range recs {
			if rec.LSN <= db.wal.LastLSN() {
				continue
			}
			if err := failpoint.Eval(failpoint.ReplicationApply); err != nil {
				if failpoint.IsCrash(err) {
					db.wal.Kill()
				}
				return err
			}
			p, err := decodeRecord(rec.Type, rec.Data)
			if err == nil {
				_, err = db.apply(rec.Type, p)
			}
			if err != nil {
				return fmt.Errorf("engine: applying replicated record lsn=%d type=%s: %w", rec.LSN, rec.Type, err)
			}
			t, err := db.wal.StageRecord(rec)
			if err != nil {
				return fmt.Errorf("engine: staging replicated record lsn=%d: %w", rec.LSN, err)
			}
			tok = t
		}
		return nil
	}()
	if serr := db.syncWAL(tok); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return err
	}
	db.maybeAutoCheckpoint()
	return nil
}

// InstallReplicaSnapshot replaces the database's entire state with the
// primary's checkpoint (shed-and-resync: the replica fell behind a rotated
// WAL). The raw stream is validated against a scratch engine first so a
// malformed payload cannot leave the live replica half-cleared; then,
// under the exclusive statement lock, the state is swapped, the
// checkpoint is published to the data directory, and the local WAL is
// rotated to the checkpoint's LSN. Crash orderings are safe for the same
// reason checkpointing is: stale log records sit at or below the
// published checkpoint's LSN and recovery skips them.
func (db *DB) InstallReplicaSnapshot(raw []byte) (uint64, error) {
	if db.wal == nil {
		return 0, fmt.Errorf("engine: snapshot install requires durability")
	}
	scratch, err := Load(bytes.NewReader(raw), Config{DisableMetrics: true, DisableTracing: true})
	if err != nil {
		return 0, fmt.Errorf("engine: rejecting replica snapshot: %w", err)
	}
	scratch.Close()

	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	db.clearStateLocked()
	if err := db.loadCheckpoint(raw); err != nil {
		// Validated above, so this indicates an environment failure
		// (page store exhaustion or the like); the replica is unusable
		// and the caller should stop serving.
		return 0, fmt.Errorf("engine: installing replica snapshot: %w", err)
	}
	lsn := db.recoveredLSN
	write := func(w io.Writer) error { _, err := w.Write(raw); return err }
	if err := publishCheckpoint(filepath.Join(db.walDir, snapshotFileName), write); err != nil {
		return 0, fmt.Errorf("engine: persisting replica snapshot: %w", err)
	}
	if err := db.wal.Reset(lsn); err != nil {
		return 0, fmt.Errorf("engine: rotating wal after resync: %w", err)
	}
	return lsn, nil
}

// clearStateLocked discards the full logical state — catalog, annotation
// and summary stores, registered queries, materialized
// zoom-in results — leaving a blank database on the same buffer pool and
// registries, ready for loadCheckpoint. Old annotation pages are orphaned in
// the page store until the next restart rebuilds it (the page file is an
// ephemeral paging layer, recreated on open). Callers hold the exclusive
// statement lock.
func (db *DB) clearStateLocked() {
	db.maint.drain()
	db.mu.Lock()
	db.cat = catalog.New()
	db.anns = annotation.NewStore(db.pool)
	db.envs = newEnvStore()
	db.mu.Unlock()
	db.annClock.Store(0)
	db.detached = make(map[annotation.ID]bool)
	db.cache.Clear()
}

// annStore / envStore / catStore snapshot the store pointers under
// db.mu for readers outside the statement lock (metric scrapes): a
// replica snapshot resync replaces the stores wholesale.
func (db *DB) annStore() *annotation.Store {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.anns
}

func (db *DB) envStore() *envStore {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.envs
}

func (db *DB) catStore() *catalog.Catalog {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cat
}
