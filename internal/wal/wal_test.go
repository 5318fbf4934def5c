package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"insightnotes/internal/failpoint"
)

// payload is a record body; the log treats bodies as opaque bytes.
func payload(n int, s string) string { return fmt.Sprintf("n=%d %s", n, s) }

// rawFrame frames payload as it stands, with a valid length and CRC.
func rawFrame(payload []byte) []byte {
	buf := make([]byte, headerBytes, headerBytes+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

func openT(t *testing.T, dir string, lastLSN uint64) *Log {
	t.Helper()
	l, err := Open(filepath.Join(dir, "wal.log"), lastLSN)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	for i := 1; i <= 5; i++ {
		lsn, err := l.Append("insert", payload(i, "row"))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if st := l.Stats(); st.Appends != 5 || st.Fsyncs != 5 {
		t.Fatalf("stats = %+v, want 5 appends / 5 fsyncs", st)
	}
	l.Close()

	var got []Record
	res, err := Replay(filepath.Join(dir, "wal.log"), 0, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || res.Replayed != 5 || res.Skipped != 0 || res.LastLSN != 5 {
		t.Fatalf("replay result = %+v", res)
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) || r.Type != "insert" || string(r.Data) != payload(i+1, "row") {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestReplaySkipsThroughSnapshotLSN(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	for i := 1; i <= 6; i++ {
		if _, err := l.Append("m", payload(i, "")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	var applied []uint64
	res, err := Replay(filepath.Join(dir, "wal.log"), 4, func(r Record) error {
		applied = append(applied, r.LSN)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 4 || res.Replayed != 2 {
		t.Fatalf("replay result = %+v", res)
	}
	if len(applied) != 2 || applied[0] != 5 || applied[1] != 6 {
		t.Fatalf("applied = %v, want [5 6]", applied)
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	res, err := Replay(filepath.Join(t.TempDir(), "absent.log"), 0, func(Record) error {
		t.Fatal("apply called on missing log")
		return nil
	})
	if err != nil || res.Replayed != 0 || res.Torn {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
}

// corruptTail appends raw garbage and asserts replay truncates it while
// preserving the intact prefix.
func TestReplayTruncatesTornTail(t *testing.T) {
	cases := []struct {
		name string
		tail func(goodPayload []byte) []byte
	}{
		{"partial_header", func([]byte) []byte { return []byte{0xAA, 0xBB} }},
		{"partial_payload", func(p []byte) []byte {
			buf := make([]byte, 8)
			binary.LittleEndian.PutUint32(buf[0:4], uint32(len(p)+100))
			binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(p))
			return append(buf, p[:4]...)
		}},
		{"crc_mismatch", func(p []byte) []byte {
			buf := make([]byte, 8)
			binary.LittleEndian.PutUint32(buf[0:4], uint32(len(p)))
			binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(p)+1)
			return append(buf, p...)
		}},
		// CRC-valid frames of the current format whose payload does not
		// parse: an LSN uvarint that overflows, one that stops short, and
		// a type whose length overcounts the bytes left.
		{"unparsable_payload", func([]byte) []byte {
			return rawFrame(append([]byte{formatVersion}, bytes.Repeat([]byte{0xff}, 11)...))
		}},
		{"truncated_payload", func([]byte) []byte { return rawFrame([]byte{formatVersion, 0x80}) }},
		{"overcounted_type", func([]byte) []byte { return rawFrame([]byte{formatVersion, 99, 40, 'm'}) }},
		{"zero_length", func([]byte) []byte { return []byte{0, 0, 0, 0, 1, 2, 3, 4} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "wal.log")
			l, err := Open(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 3; i++ {
				if _, err := l.Append("m", payload(i, "")); err != nil {
					t.Fatal(err)
				}
			}
			goodSize := l.Size()
			l.Close()
			good, err := AppendFrame(nil, Record{LSN: 99, Type: "m", Data: []byte(payload(99, ""))})
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tail(good[8:])); err != nil {
				t.Fatal(err)
			}
			f.Close()

			var applied int
			res, err := Replay(path, 0, func(Record) error { applied++; return nil })
			if err != nil {
				t.Fatal(err)
			}
			if !res.Torn || res.TornOffset != goodSize {
				t.Fatalf("res = %+v, want torn at %d", res, goodSize)
			}
			if applied != 3 {
				t.Fatalf("applied = %d, want 3 intact records", applied)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != goodSize {
				t.Fatalf("file size after truncate = %d, want %d", st.Size(), goodSize)
			}
			// A second replay over the truncated log is clean.
			res2, err := Replay(path, 0, func(Record) error { return nil })
			if err != nil || res2.Torn || res2.Replayed != 3 {
				t.Fatalf("second replay = %+v, err = %v", res2, err)
			}
		})
	}
}

// A CRC-valid frame of another format — a format 1 JSON payload, a
// format 2 or 3 binary one, or any unknown format byte — is refused with
// ErrFormat, naming both formats, and the file is left byte for byte as it
// was: never truncated as a torn tail.
func TestReplayRefusesOtherFormat(t *testing.T) {
	for name, p := range map[string][]byte{
		"json":         []byte(`{"lsn":4,"type":"m","data":{"n":4}}`),
		"format_2":     {2, 4, 1, 'm'},
		"format_3":     {3, 4, 1, 'm'},
		"unknown_byte": {formatVersion + 1, 4, 1, 'm'},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "wal.log")
			l := openT(t, dir, 0)
			for i := 1; i <= 3; i++ {
				if _, err := l.Append("m", payload(i, "")); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(rawFrame(p)); err != nil {
				t.Fatal(err)
			}
			f.Close()
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Replay(path, 0, func(Record) error { return nil })
			if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "format 4") {
				t.Fatalf("replay err = %v, want ErrFormat naming format 4", err)
			}
			if name == "json" && !strings.Contains(err.Error(), "format 1 (JSON)") {
				t.Fatalf("replay err = %v, want it to name format 1", err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("replay changed the log: %d -> %d bytes", len(before), len(after))
			}
			tr := openTailT(t, path)
			for i := 0; i < 3; i++ {
				if _, err := tr.Next(-1); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tr.Next(-1); !errors.Is(err, ErrFormat) {
				t.Fatalf("tail err = %v, want ErrFormat", err)
			}
		})
	}
}

func TestResetContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l := openT(t, dir, 0)
	for i := 1; i <= 3; i++ {
		if _, err := l.Append("m", payload(i, "")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(l.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("size after reset = %d", l.Size())
	}
	lsn, err := l.Append("m", payload(4, ""))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("post-reset lsn = %d, want 4", lsn)
	}
	l.Close()
	res, err := Replay(path, 3, func(r Record) error {
		if r.LSN != 4 {
			return errors.New("unexpected record")
		}
		return nil
	})
	if err != nil || res.Replayed != 1 || res.Skipped != 0 {
		t.Fatalf("replay after reset = %+v, err = %v", res, err)
	}
}

func TestFailedAppendRollsBack(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l := openT(t, dir, 0)
	if _, err := l.Append("m", payload(1, "")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk unhappy")

	// before-write: nothing reaches the file.
	failpoint.EnableError(failpoint.WALAppendBefore, boom)
	if _, err := l.Append("m", payload(2, "")); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	failpoint.Disable(failpoint.WALAppendBefore)

	// before-sync (non-crash): frame written then rolled back.
	failpoint.EnableError(failpoint.WALAppendBeforeSync, boom)
	if _, err := l.Append("m", payload(3, "")); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	failpoint.Disable(failpoint.WALAppendBeforeSync)

	if st := l.Stats(); st.AppendErrors != 2 || st.Appends != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The log is still usable and consistent.
	if _, err := l.Append("m", payload(4, "")); err != nil {
		t.Fatal(err)
	}
	if got := l.LastLSN(); got != 2 {
		t.Fatalf("lastLSN = %d, want 2 (failed appends consumed no LSN)", got)
	}
	l.Close()
	var lsns []uint64
	res, err := Replay(path, 0, func(r Record) error { lsns = append(lsns, r.LSN); return nil })
	if err != nil || res.Torn {
		t.Fatalf("replay = %+v, err = %v", res, err)
	}
	if len(lsns) != 2 || lsns[0] != 1 || lsns[1] != 2 {
		t.Fatalf("recovered lsns = %v, want [1 2]", lsns)
	}
}

func TestInjectedCrashLeavesTornRecordAndKillsLog(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l := openT(t, dir, 0)
	if _, err := l.Append("m", payload(1, "")); err != nil {
		t.Fatal(err)
	}
	goodSize := l.Size()
	failpoint.EnableError(failpoint.WALAppendPartial, failpoint.CrashError(failpoint.WALAppendPartial))
	_, err := l.Append("m", payload(2, "torn"))
	if !failpoint.IsCrash(err) {
		t.Fatalf("err = %v, want crash", err)
	}
	failpoint.Reset()
	// Dead handle refuses further work.
	if _, err := l.Append("m", payload(3, "")); !errors.Is(err, ErrLogDead) {
		t.Fatalf("append on dead log = %v", err)
	}
	if err := l.Reset(0); !errors.Is(err, ErrLogDead) {
		t.Fatalf("reset on dead log = %v", err)
	}
	l.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= goodSize {
		t.Fatalf("no torn bytes on disk: size %d <= %d", st.Size(), goodSize)
	}
	var applied int
	res, err := Replay(path, 0, func(Record) error { applied++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Torn || res.TornOffset != goodSize || applied != 1 {
		t.Fatalf("replay = %+v, applied = %d", res, applied)
	}
}

func TestFsyncObserver(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	var observed int
	l.FsyncObserver = func(d time.Duration) {
		if d < 0 {
			t.Errorf("negative fsync duration %v", d)
		}
		observed++
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append("m", payload(i, "")); err != nil {
			t.Fatal(err)
		}
	}
	if observed != 3 {
		t.Fatalf("observer fired %d times, want 3", observed)
	}
}

// TestGroupCommitBatchesConcurrentCommitters stages records from many
// goroutines and syncs them concurrently: every record must be durable
// and replayable, and the fsync count must come in below one-per-record
// (the whole point of group commit). Stage is serialized here only to
// get deterministic staging; Sync runs fully concurrently.
func TestGroupCommitBatchesConcurrentCommitters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	toks := make([]SyncToken, n)
	var stageMu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stageMu.Lock()
			_, tok, err := l.Stage("m", []byte(payload(i, "")))
			stageMu.Unlock()
			if err != nil {
				t.Errorf("stage %d: %v", i, err)
				return
			}
			toks[i] = tok
			if err := l.Sync(tok); err != nil {
				t.Errorf("sync %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != n {
		t.Fatalf("Appends = %d, want %d", st.Appends, n)
	}
	if st.Fsyncs >= n {
		t.Fatalf("Fsyncs = %d: no batching happened (want < %d)", st.Fsyncs, n)
	}
	if st.GroupCommitBatches == 0 || st.GroupCommitRecords == 0 {
		t.Fatalf("group-commit stats empty: %+v", st)
	}
	// Re-syncing an already-durable token is a no-op.
	fsyncs := st.Fsyncs
	if err := l.Sync(toks[0]); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Fsyncs; got != fsyncs {
		t.Fatalf("redundant Sync issued an fsync (%d -> %d)", fsyncs, got)
	}
	l.Close()
	var count int
	res, err := Replay(path, 0, func(Record) error { count++; return nil })
	if err != nil || res.Torn || count != n {
		t.Fatalf("replay = %+v, count = %d, err = %v", res, count, err)
	}
}

// TestGroupCommitCheckpointFence: a token staged before a Reset is
// durable through the snapshot the caller published, so its Sync must
// succeed without touching the rotated log.
func TestGroupCommitCheckpointFence(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	lsn, tok, err := l.Stage("m", []byte(payload(1, "")))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(tok); err != nil {
		t.Fatalf("sync of checkpointed token = %v, want success no-op", err)
	}
	if st := l.Stats(); st.Appends != 1 || st.Fsyncs != 0 {
		t.Fatalf("stats = %+v, want the pending record counted via the reset, no commit fsync", st)
	}
	if l.Size() != 0 {
		t.Fatalf("size = %d after reset", l.Size())
	}
}

// TestGroupCommitWipeFence: when the leader's commit fails, every staged
// record in the batch is truncated, the follower's Sync reports
// ErrRecordLost, and the consumed LSNs return to the sequence.
func TestGroupCommitWipeFence(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l := openT(t, dir, 0)
	if _, err := l.Append("m", payload(1, "")); err != nil {
		t.Fatal(err)
	}
	_, tok2, err := l.Stage("m", []byte(payload(2, "")))
	if err != nil {
		t.Fatal(err)
	}
	_, tok3, err := l.Stage("m", []byte(payload(3, "")))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk unhappy")
	failpoint.EnableError(failpoint.WALAppendBeforeSync, boom)
	if err := l.Sync(tok3); !errors.Is(err, boom) {
		t.Fatalf("leader sync = %v, want %v", err, boom)
	}
	failpoint.Reset()
	if err := l.Sync(tok2); !errors.Is(err, ErrRecordLost) {
		t.Fatalf("follower sync = %v, want ErrRecordLost", err)
	}
	if st := l.Stats(); st.AppendErrors != 2 || st.Appends != 1 {
		t.Fatalf("stats = %+v, want 2 lost / 1 committed", st)
	}
	// The sequence continues from the durable prefix.
	lsn, err := l.Append("m", payload(4, ""))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 2 {
		t.Fatalf("post-wipe lsn = %d, want 2", lsn)
	}
	l.Close()
	var lsns []uint64
	res, err := Replay(path, 0, func(r Record) error { lsns = append(lsns, r.LSN); return nil })
	if err != nil || res.Torn || len(lsns) != 2 || lsns[0] != 1 || lsns[1] != 2 {
		t.Fatalf("replay = %+v, lsns = %v, err = %v", res, lsns, err)
	}
}

func TestApplyErrorAborts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l := openT(t, dir, 0)
	for i := 1; i <= 3; i++ {
		if _, err := l.Append("m", payload(i, "")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	boom := errors.New("apply failed")
	_, err := Replay(path, 0, func(r Record) error {
		if r.LSN == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want apply failure", err)
	}
}
