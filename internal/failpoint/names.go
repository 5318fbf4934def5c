package failpoint

// Every failpoint name the engine evaluates, declared once. The naming
// scheme is fp/<layer>/<point>; the internal/lint test rejects any
// fp/* string literal anywhere in the tree that is not declared in this
// file, so the failpoint catalog stays reviewable in one place (mirroring
// the metric-name lint over internal/metrics/names.go).
const (
	// WAL append path (internal/wal). Before: nothing has been written.
	// Partial: with a crash action, a prefix of the frame is written and
	// the log dies — the torn-record case recovery must truncate. Before
	// sync: the frame is fully written but not yet fsynced; the append is
	// rolled back by truncation, modeling bytes that never reached disk.
	WALAppendBefore     = "fp/wal/append_before"
	WALAppendPartial    = "fp/wal/append_partial"
	WALAppendBeforeSync = "fp/wal/append_before_sync"

	// Snapshot/checkpoint write path (internal/engine). SnapshotWrite
	// fails the temp-file write; BeforeRename crashes with the temp file
	// complete but the snapshot not yet published; AfterRename crashes
	// with the new snapshot published but the WAL not yet reset — the
	// case the LSN skip logic exists for.
	CheckpointSnapshotWrite = "fp/engine/checkpoint_snapshot_write"
	CheckpointBeforeRename  = "fp/engine/checkpoint_before_rename"
	CheckpointAfterRename   = "fp/engine/checkpoint_after_rename"

	// Degraded-mode maintenance worker (internal/engine), evaluated before
	// each deferred summary-maintenance task is applied. A crash action
	// simulates the process dying mid-catch-up: recovery must rebuild
	// summaries from the raw annotations in the WAL/snapshot and converge
	// to the same state a synchronous shadow replay produces.
	MaintenanceApply = "fp/engine/maintenance_apply"

	// Server statement execution (internal/server), evaluated at the top
	// of every request; the panic-isolation regression test enables it
	// with a panicking action.
	ServerExecPanic = "fp/server/exec_panic"

	// Replication link (internal/engine + internal/replication).
	// ReplicationApply is evaluated on the replica before each replicated
	// record is applied; a crash action kills the replica's local WAL and
	// stops the receiver — the process-dying-mid-stream case the LSN
	// resume protocol covers (mirroring TestCrashRecovery). ReplicationAck
	// is evaluated before the receiver acknowledges applied records; a
	// crash there models death after apply-and-log but before ack, forcing
	// the primary to resend records the replica deduplicates by LSN.
	ReplicationApply = "fp/replication/apply"
	ReplicationAck   = "fp/replication/ack"

	// Page-store I/O path (internal/storage). ReadBitrot flips a payload
	// byte after a FileStore page read, modeling silent bit rot that the
	// stamped CRC32-C must catch; FlushCorrupt garbles one byte of a page
	// flush after the checksum stamp, modeling a torn write that the next
	// read must detect. Both drive the bit-rot chaos soak (make soak-scrub).
	StorageReadBitrot   = "fp/storage/read_bitrot"
	StorageFlushCorrupt = "fp/storage/flush_corrupt"

	// Table insert path (internal/catalog), evaluated after the row is in
	// the heap but before secondary indexes are updated. A crash action
	// models the process dying between the two writes: the WAL never logged
	// the insert (logging happens after success), so recovery must converge
	// to a state where the row is absent and every index agrees with its
	// heap.
	CatalogInsertIndex = "fp/catalog/insert_index"
)
