// Package wal is the engine's write-ahead log: an append-only file of
// length+CRC32-framed, fsync-on-commit records describing logical
// mutations. Together with checkpoints it makes the mutation path
// crash-safe — on startup the engine loads the latest checkpoint and
// replays the WAL tail, truncating cleanly at the first torn or corrupt
// record. A checkpoint is itself a stream of these frames (AppendFrame,
// SplitFrame), so the log's frame is the one format of durable state.
//
// On-disk format, per record:
//
//	4 bytes  little-endian uint32: payload length
//	4 bytes  little-endian uint32: IEEE CRC32 of the payload
//	n bytes  payload:
//	         1 byte   format, 4
//	         uvarint  LSN
//	         Str      record type (internal/codec: uvarint length, bytes)
//	         rest     body, opaque to this package (the engine's payload)
//
// The format byte tells an older log apart: format 1 wrote each payload as
// one JSON document, which starts with '{'; format 2 wrote annotate bodies
// without recorded classifier labels, format 3 with them, and both held
// an instance's model as JSON. A CRC-valid frame of any other format is
// ErrFormat, which Replay returns as an error and never truncates as a torn
// tail, so a log this build cannot read is refused whole instead of
// silently dropped.
//
// Records carry a strictly increasing LSN. A checkpoint remembers the LSN
// it includes; replay skips records at or below it, which makes a crash
// between "checkpoint published" and "log reset" harmless (the stale
// prefix is skipped, never double-applied).
//
// Durability contract: Append returns only after the record is fsynced,
// so an acknowledged mutation survives a process kill. A failed append
// rolls the file back to its last durable size so the log is never
// poisoned by its own error paths; the injected-crash failpoint is the
// deliberate exception, leaving a torn record for recovery to handle.
//
// Group commit: Append is split into Stage (serialize the frame into the
// file under the short staging lock) and Sync (make every staged byte up
// to the caller's token durable). Concurrent committers stage
// independently, then the first one into Sync becomes the batch leader
// and issues a single fsync that covers everyone staged so far; the
// followers observe that their bytes are already durable and return
// without touching the disk. Under a serial writer this degrades to
// exactly the old fsync-per-append behavior.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"insightnotes/internal/codec"
	"insightnotes/internal/failpoint"
)

const headerBytes = 8

// formatVersion is the first payload byte of every frame this build writes.
const formatVersion = 4

// maxCommitWindowYields bounds the group-commit window: the batch leader
// yields at most this many times while committers keep staging behind
// it, then fsyncs whatever accumulated.
const maxCommitWindowYields = 16

// maxRecordBytes bounds a single record; a length field above it marks
// the frame — and everything after it — as corrupt.
const maxRecordBytes = 64 << 20

// ErrLogDead marks a log killed by a simulated crash-stop: the handle
// refuses further appends, as a dead process would.
var ErrLogDead = errors.New("wal: log is dead after simulated crash")

// ErrRecordLost reports that a staged record was truncated away because
// the group-commit fsync covering it failed. The caller's mutation is
// not durable and the statement must be reported failed.
var ErrRecordLost = errors.New("wal: record lost to a failed group commit")

// Record is one logical mutation in the log.
type Record struct {
	// LSN is the record's log sequence number, strictly increasing.
	LSN uint64
	// Type names the logical mutation (the engine defines the set).
	Type string
	// Data is the type-specific body, encoded by the engine.
	Data []byte
}

// Stats are cumulative counters of one Log handle.
type Stats struct {
	Appends      int64 // records committed
	AppendErrors int64 // appends that failed (including injected faults)
	BytesWritten int64 // framed bytes committed
	Fsyncs       int64 // fsync calls issued
	Resets       int64 // checkpoint truncations

	// Group commit: GroupCommitBatches counts commit fsyncs that made at
	// least one record durable; GroupCommitRecords counts records that
	// shared their commit fsync with at least one other record. A serial
	// workload shows Batches == Appends and Records == 0; the gap between
	// Appends and Batches is the fsyncs saved by batching.
	GroupCommitBatches int64
	GroupCommitRecords int64
}

// SyncToken identifies a staged-but-not-yet-durable position in the log.
// Stage returns one; passing it to Sync blocks until every byte up to
// that position is durable (possibly via another committer's fsync). The
// zero token is valid and syncs nothing.
type SyncToken struct {
	end     int64  // staged byte offset this token's record ends at
	ckptGen uint64 // checkpoint generation the token was staged in
	wipeGen uint64 // failure-truncation generation the token was staged in
	ok      bool
}

// Log is an open write-ahead log. Safe for concurrent use.
type Log struct {
	// FsyncObserver, when set (before the first Append), receives the
	// duration of every commit fsync — the engine feeds it into the
	// insightnotes_wal_fsync_seconds histogram.
	FsyncObserver func(time.Duration)

	mu      sync.Mutex
	f       *os.File
	path    string
	synced  int64 // durable byte size (everything at or below is fsynced)
	written int64 // staged byte size (synced..written awaits a commit fsync)
	// stagedRecs / syncedRecs are cumulative record counts mirroring
	// written / synced; their difference is the pending batch size.
	stagedRecs int64
	syncedRecs int64
	lastLSN    uint64
	dead       bool
	stats      Stats
	// syncing is true while a batch leader's fsync is in flight; syncCond
	// (on mu) is broadcast whenever the durable frontier moves — commit,
	// wipe, reset, death — so every waiting follower re-checks at once
	// instead of draining through a mutex one per fsync.
	syncing  bool
	syncCond *sync.Cond
	// ckptGen bumps on Reset: a pending token from before the rotation is
	// already durable via the snapshot, so its Sync is a success no-op.
	ckptGen uint64
	// wipeGen bumps when a failed commit truncates the staged tail: a
	// pending token from before the wipe has lost its bytes, so its Sync
	// reports ErrRecordLost.
	wipeGen uint64
	// subs are durable-frontier subscribers (see SubscribeDurable): each
	// gets a non-blocking wakeup whenever the frontier moves, the log
	// rotates, or the handle dies.
	subs []chan struct{}
	// baseLSN is a position known to be covered outside this file:
	// records at or below it may be absent (truncated by rotation, or
	// subsumed by the snapshot an empty log was opened against). Exact
	// after Reset and after opening an empty file; 0 (no claim) when a
	// non-empty file is reopened, where the first record's LSN carries
	// the same information. The replication sender uses it to decide
	// when a replica's resume position predates the log.
	baseLSN uint64
	// frameBuf is reused by every Stage to build the frame it writes.
	frameBuf []byte
}

// Open opens (creating if needed) the log at path for appending.
// lastLSN seeds the sequence: the next record gets lastLSN+1. Callers
// recover the value by replaying the log first (see Replay).
func Open(path string, lastLSN uint64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{f: f, path: path, synced: st.Size(), written: st.Size(), lastLSN: lastLSN}
	if st.Size() == 0 {
		l.baseLSN = lastLSN
	}
	l.syncCond = sync.NewCond(&l.mu)
	return l, nil
}

// AppendFrame appends the on-disk bytes of rec — its frame — to dst.
func AppendFrame(dst []byte, rec Record) ([]byte, error) {
	start := len(dst)
	w := codec.NewWriter(append(dst, make([]byte, headerBytes)...))
	w.Byte(formatVersion)
	w.Uvarint(rec.LSN)
	w.Str(rec.Type)
	w.Raw(rec.Data)
	buf := w.Bytes()
	payload := buf[start+headerBytes:]
	if len(payload) > maxRecordBytes {
		return dst, fmt.Errorf("wal: %s record of %d bytes exceeds the %d-byte limit", rec.Type, len(payload), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf, nil
}

// parsePayload decodes a CRC-checked frame payload. A payload of another
// format is ErrFormat; one that does not parse is ErrCorrupt. The record's
// Data is a copy: the payload buffer is reused by the next read.
func parsePayload(payload []byte) (Record, error) {
	if payload[0] != formatVersion {
		name := fmt.Sprintf("format %d", payload[0])
		if payload[0] == '{' {
			name = "format 1 (JSON)"
		}
		return Record{}, fmt.Errorf("%w: frame is %s, this build reads format %d only", ErrFormat, name, formatVersion)
	}
	r := codec.NewReader(payload[1:])
	rec := Record{LSN: r.Uvarint(), Type: r.Str()}
	rec.Data = bytes.Clone(r.Rest())
	if err := r.Err(); err != nil {
		return Record{}, fmt.Errorf("%w: unparsable payload: %v", ErrCorrupt, err)
	}
	return rec, nil
}

// Append commits one record: frame, write, fsync, in that order. It
// returns the record's LSN. On error nothing is durably appended — the
// file is rolled back to its last durable size — except under an
// injected crash-stop, which deliberately leaves a torn record and kills
// the handle. Equivalent to Stage followed by Sync, for a caller holding
// its body as text; concurrent callers that want to share fsyncs call the
// two halves themselves with their own serialization in between (the
// engine stages under its statement lock and syncs after releasing it).
func (l *Log) Append(recType, body string) (uint64, error) {
	lsn, tok, err := l.Stage(recType, []byte(body))
	if err != nil {
		return 0, err
	}
	if err := l.Sync(tok); err != nil {
		return 0, err
	}
	return lsn, nil
}

// Stage assigns the next LSN and writes the framed record, whose encoded
// body is body, into the file without syncing it. The record is NOT
// durable until a Sync covering the returned token completes. On error
// nothing is staged and no LSN is consumed (except the injected mid-write
// crash, which leaves a torn prefix and kills the handle).
func (l *Log) Stage(recType string, body []byte) (uint64, SyncToken, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return 0, SyncToken{}, ErrLogDead
	}
	buf, err := AppendFrame(l.frameBuf[:0], Record{LSN: l.lastLSN + 1, Type: recType, Data: body})
	if err != nil {
		return 0, SyncToken{}, err
	}
	l.frameBuf = buf
	if err := failpoint.Eval(failpoint.WALAppendBefore); err != nil {
		l.stats.AppendErrors++
		return 0, SyncToken{}, err
	}
	if err := failpoint.Eval(failpoint.WALAppendPartial); err != nil {
		if failpoint.IsCrash(err) {
			// Crash-stop mid-write: a prefix of the frame reaches the
			// file and the process "dies". Recovery must truncate this.
			l.f.Write(buf[:len(buf)/2])
			l.dead = true
			l.notifyDurableLocked()
		}
		l.stats.AppendErrors++
		return 0, SyncToken{}, err
	}
	if _, err := l.f.Write(buf); err != nil {
		// Roll back just this frame; earlier staged-but-unsynced frames
		// from concurrent committers stay in place.
		_ = l.f.Truncate(l.written)
		l.stats.AppendErrors++
		return 0, SyncToken{}, fmt.Errorf("wal: append write: %w", err)
	}
	l.lastLSN++
	l.written += int64(len(buf))
	l.stagedRecs++
	tok := SyncToken{end: l.written, ckptGen: l.ckptGen, wipeGen: l.wipeGen, ok: true}
	return l.lastLSN, tok, nil
}

// StageRecord stages a record whose LSN was assigned elsewhere — the
// replication apply path, where a replica persists the primary's records
// into its own log under the primary's LSNs so a restart resumes from the
// exact position it last made durable. rec.LSN must exceed the last
// staged LSN; gaps are allowed (a snapshot resync jumps the sequence
// forward). Durability follows the usual Stage/Sync contract. Note the
// failed-commit wipe assumes a dense LSN sequence when returning LSNs to
// the pool; a replica that loses a group commit must treat its log handle
// as poisoned and resync rather than restage (the receiver does).
func (l *Log) StageRecord(rec Record) (SyncToken, error) {
	if rec.LSN == 0 {
		return SyncToken{}, fmt.Errorf("wal: staging record with zero LSN")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return SyncToken{}, ErrLogDead
	}
	if rec.LSN <= l.lastLSN {
		return SyncToken{}, fmt.Errorf("wal: staging stale record lsn=%d (last staged %d)", rec.LSN, l.lastLSN)
	}
	buf, err := AppendFrame(l.frameBuf[:0], rec)
	if err != nil {
		return SyncToken{}, err
	}
	l.frameBuf = buf
	if _, err := l.f.Write(buf); err != nil {
		_ = l.f.Truncate(l.written)
		l.stats.AppendErrors++
		return SyncToken{}, fmt.Errorf("wal: append write: %w", err)
	}
	l.lastLSN = rec.LSN
	l.written += int64(len(buf))
	l.stagedRecs++
	return SyncToken{end: l.written, ckptGen: l.ckptGen, wipeGen: l.wipeGen, ok: true}, nil
}

// Sync makes every byte staged at or before tok durable. The first
// committer in becomes the batch leader and fsyncs once for everyone
// staged so far; later committers covered by that fsync return without
// touching the disk. A token superseded by a checkpoint rotation is a
// success no-op (the snapshot already made it durable); a token whose
// bytes were truncated by a failed commit reports ErrRecordLost.
func (l *Log) Sync(tok SyncToken) error {
	if !tok.ok {
		return nil
	}
	l.mu.Lock()
	for {
		switch {
		case tok.ckptGen != l.ckptGen:
			l.mu.Unlock()
			return nil
		case tok.wipeGen != l.wipeGen:
			l.mu.Unlock()
			return ErrRecordLost
		case tok.end <= l.synced:
			l.mu.Unlock()
			return nil
		case l.dead:
			l.mu.Unlock()
			return ErrLogDead
		}
		if !l.syncing {
			break
		}
		// A leader's fsync is in flight; wait for the broadcast and
		// re-check — if it covers us we return without ever touching
		// the disk, otherwise we contend to lead the next batch.
		l.syncCond.Wait()
	}
	l.syncing = true
	staged := l.stagedRecs
	l.mu.Unlock()
	// Commit window: before capturing the batch boundary, yield while
	// concurrent committers are still staging behind us — on few-core
	// hosts a leader that goes straight into the blocking fsync syscall
	// would otherwise keep the CPU away from them until sysmon retakes
	// the P, and batches collapse to size one. The window closes as soon
	// as staging stops making progress, so a serial committer pays one
	// no-op yield (nanoseconds) and nothing ever waits on a timer.
	for i := 0; i < maxCommitWindowYields; i++ {
		runtime.Gosched()
		l.mu.Lock()
		n := l.stagedRecs
		l.mu.Unlock()
		if n == staged {
			break
		}
		staged = n
	}
	l.mu.Lock()
	if l.dead {
		l.finishSyncLocked()
		l.mu.Unlock()
		return ErrLogDead
	}
	if err := failpoint.Eval(failpoint.WALAppendBeforeSync); err != nil {
		if failpoint.IsCrash(err) {
			l.dead = true
		} else {
			// Unsynced bytes are not durable; roll them back so the
			// staged state stays truthful. Committers waiting on the
			// same batch observe the wipe and fail too.
			l.wipeLocked()
		}
		l.finishSyncLocked()
		l.mu.Unlock()
		return err
	}
	// Capture the batch boundary, then fsync outside l.mu so new
	// committers can keep staging into the next batch meanwhile.
	target, targetRecs := l.written, l.stagedRecs
	l.mu.Unlock()

	start := time.Now()
	err := l.f.Sync()
	elapsed := time.Since(start)

	l.mu.Lock()
	l.stats.Fsyncs++
	if err != nil {
		l.wipeLocked()
		l.finishSyncLocked()
		l.mu.Unlock()
		return fmt.Errorf("wal: commit fsync: %w", err)
	}
	batch := targetRecs - l.syncedRecs
	l.stats.Appends += batch
	l.stats.BytesWritten += target - l.synced
	l.stats.GroupCommitBatches++
	if batch > 1 {
		l.stats.GroupCommitRecords += batch
	}
	l.synced, l.syncedRecs = target, targetRecs
	l.finishSyncLocked()
	obs := l.FsyncObserver
	l.mu.Unlock()
	if obs != nil {
		obs(elapsed)
	}
	return nil
}

// finishSyncLocked ends the current leader's term and wakes every
// waiting follower to re-check the durable frontier. Callers hold l.mu.
func (l *Log) finishSyncLocked() {
	l.syncing = false
	l.syncCond.Broadcast()
	l.notifyDurableLocked()
}

// notifyDurableLocked wakes durable-frontier subscribers without ever
// blocking: a subscriber with a pending wakeup already has all the
// information a second one would carry. Callers hold l.mu.
func (l *Log) notifyDurableLocked() {
	for _, ch := range l.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// SubscribeDurable registers ch for a wakeup whenever the durable
// frontier may have moved: a commit fsync completed (or failed), the log
// rotated under a checkpoint, or the handle died. ch should have capacity
// 1; notifications are collapsed, never blocked on. The replication
// sender uses this to tail the log without polling.
func (l *Log) SubscribeDurable(ch chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.subs = append(l.subs, ch)
}

// UnsubscribeDurable removes ch from the subscriber list.
func (l *Log) UnsubscribeDurable(ch chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, c := range l.subs {
		if c == ch {
			l.subs = append(l.subs[:i], l.subs[i+1:]...)
			break
		}
	}
}

// DurableFrontier reports the durable byte size of the log, the
// checkpoint generation it belongs to, and whether the handle is dead. A
// tailing reader may safely interpret any malformed frame strictly below
// the frontier as corruption; at or beyond it, a malformed frame is just
// a write in progress. A generation change since the last observation
// means the file was rotated and byte offsets no longer line up — the
// reader must reopen from the start.
func (l *Log) DurableFrontier() (size int64, ckptGen uint64, dead bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced, l.ckptGen, l.dead
}

// Kill marks the handle dead as a simulated crash-stop would: further
// appends fail with ErrLogDead, pending syncs drain with the same error,
// and subscribers are woken. The file is left exactly as the crash found
// it. Replication crash tests use this to model a replica process dying
// mid-apply.
func (l *Log) Kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dead = true
	l.syncCond.Broadcast()
	l.notifyDurableLocked()
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// BaseLSN reports the position known to be covered outside the log file
// (see the field doc): a replica resuming from at or above it can be
// served from the file alone; one below it may be missing records and
// needs a snapshot resync. 0 means "no claim" (non-empty file reopened
// after a restart), where the first record's LSN decides instead.
func (l *Log) BaseLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.baseLSN
}

// wipeLocked truncates the staged-but-unsynced tail after a failed
// commit, rolling back every record in it: the consumed LSNs are
// returned to the sequence (nothing above l.synced survives, so no later
// record holds them) and pending committers are fenced off via wipeGen.
// Callers hold l.mu.
func (l *Log) wipeLocked() {
	_ = l.f.Truncate(l.synced)
	lost := l.stagedRecs - l.syncedRecs
	l.stats.AppendErrors += lost
	l.lastLSN -= uint64(lost)
	l.stagedRecs = l.syncedRecs
	l.written = l.synced
	l.wipeGen++
}

// Reset truncates the log to empty after a checkpoint. The sequence
// continues: lastLSN seeds the next record's LSN, so post-checkpoint
// records stay above the snapshot's LSN. Records staged but not yet
// synced at reset time are durable through the snapshot the caller just
// published, so their pending Sync calls turn into success no-ops
// (fenced by the checkpoint generation).
func (l *Log) Reset(lastLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Wait out an in-flight commit fsync: rotating the file under it
	// would commit bytes of a log that no longer exists.
	for l.syncing {
		l.syncCond.Wait()
	}
	if l.dead {
		return ErrLogDead
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset truncate: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: reset fsync: %w", err)
	}
	// Pending staged records were committed by the snapshot rather than a
	// log fsync; count them so Appends still means "records made durable".
	l.stats.Appends += l.stagedRecs - l.syncedRecs
	l.stats.BytesWritten += l.written - l.synced
	l.synced, l.written = 0, 0
	l.syncedRecs = l.stagedRecs
	l.lastLSN = lastLSN
	l.baseLSN = lastLSN
	l.ckptGen++
	l.stats.Resets++
	// Followers waiting on pre-rotation tokens observe the generation
	// bump and return success (their records are in the snapshot).
	l.syncCond.Broadcast()
	l.notifyDurableLocked()
	return nil
}

// Size returns the current log size in bytes (staged, including bytes
// awaiting their commit fsync).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written
}

// LastLSN returns the LSN of the last committed record.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// Stats returns a copy of the cumulative counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close closes the underlying file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// ReplayResult reports what a replay pass found.
type ReplayResult struct {
	// Replayed counts records applied (LSN above afterLSN).
	Replayed int
	// Skipped counts records at or below afterLSN (already captured by
	// the snapshot being recovered from).
	Skipped int
	// LastLSN is the highest LSN seen (0 when the log is empty).
	LastLSN uint64
	// Torn reports that the log ended in a torn or corrupt record, which
	// was truncated away at TornOffset.
	Torn       bool
	TornOffset int64
}

// Replay reads the log at path, calling apply for every intact record
// with LSN > afterLSN. It stops at the first frame the tail reader will
// not return — short header, short payload, CRC mismatch, unparsable
// payload, or non-increasing LSN: nothing is appending, so none of those
// can still complete — truncates the file there, and reports it. A
// missing file is an empty log. A frame of another format (ErrFormat) is
// returned as an error and the file is left as it is: the log was written
// by a build that reads it, not torn. An apply error aborts the replay: a
// CRC-valid record that fails to apply means real corruption above the
// framing layer, and silently dropping committed mutations would be
// worse than refusing to start.
func Replay(path string, afterLSN uint64, apply func(Record) error) (ReplayResult, error) {
	var res ReplayResult
	t, err := OpenTail(path)
	if err != nil {
		if os.IsNotExist(err) {
			return res, nil
		}
		return res, err
	}
	defer t.Close()
	for {
		rec, err := t.Next(-1)
		if err == io.EOF {
			return res, nil // clean end
		}
		if errors.Is(err, ErrFormat) {
			return res, err
		}
		if err != nil {
			break
		}
		if rec.LSN <= afterLSN {
			res.Skipped++
		} else {
			if err := apply(rec); err != nil {
				return res, fmt.Errorf("wal: applying record lsn=%d type=%s: %w", rec.LSN, rec.Type, err)
			}
			res.Replayed++
		}
		res.LastLSN = rec.LSN
	}
	// Torn or corrupt tail: drop it so the next append starts on a clean
	// frame boundary.
	res.Torn = true
	res.TornOffset = t.Offset()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return res, err
	}
	defer f.Close()
	if err := f.Truncate(res.TornOffset); err != nil {
		return res, fmt.Errorf("wal: truncating torn tail at %d: %w", res.TornOffset, err)
	}
	if err := f.Sync(); err != nil {
		return res, fmt.Errorf("wal: syncing truncated log: %w", err)
	}
	return res, nil
}
