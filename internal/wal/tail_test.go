package wal

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func openTailT(t *testing.T, path string) *TailReader {
	t.Helper()
	tr, err := OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestTailReadsCommittedRecords(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	for i := 1; i <= 4; i++ {
		if _, err := l.Append("insert", payload(i, "")); err != nil {
			t.Fatal(err)
		}
	}
	tr := openTailT(t, l.Path())
	durable, _, _ := l.DurableFrontier()
	for i := 1; i <= 4; i++ {
		rec, err := tr.Next(durable)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.LSN != uint64(i) || rec.Type != "insert" {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
	if _, err := tr.Next(durable); err != io.EOF {
		t.Fatalf("at frontier: err = %v, want io.EOF", err)
	}
	// New commits become visible to the same reader.
	if _, err := l.Append("insert", payload(5, "")); err != nil {
		t.Fatal(err)
	}
	durable, _, _ = l.DurableFrontier()
	rec, err := tr.Next(durable)
	if err != nil || rec.LSN != 5 {
		t.Fatalf("after new append: rec=%+v err=%v", rec, err)
	}
}

// TestTailIncompleteFinalFrame is the streaming-case hardening: a frame
// that is only partially visible at the end of a live log must read as a
// retryable incomplete tail, never as corruption, and must succeed once
// the rest of the frame lands.
func TestTailIncompleteFinalFrame(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	if _, err := l.Append("insert", payload(1, "first")); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("insert", payload(2, "second")); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	second := whole[len(full):]

	// Reconstruct the log truncated at every prefix length of the second
	// frame: short header, short payload, and (one byte short) a frame
	// whose CRC cannot match yet.
	for cut := 0; cut < len(second); cut++ {
		path := filepath.Join(dir, "partial.log")
		if err := os.WriteFile(path, append(append([]byte{}, full...), second[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := OpenTail(path)
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := tr.Next(-1); err != nil || rec.LSN != 1 {
			t.Fatalf("cut=%d: first record rec=%+v err=%v", cut, rec, err)
		}
		_, err = tr.Next(-1)
		switch {
		case cut == 0:
			if err != io.EOF {
				t.Fatalf("cut=0: err = %v, want io.EOF", err)
			}
		default:
			if !errors.Is(err, ErrIncompleteTail) {
				t.Fatalf("cut=%d: err = %v, want ErrIncompleteTail", cut, err)
			}
		}
		// Completing the frame turns the retry into a success on the
		// same reader — the streaming case.
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(second[cut:]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if rec, err := tr.Next(-1); err != nil || rec.LSN != 2 {
			t.Fatalf("cut=%d: completed frame rec=%+v err=%v", cut, rec, err)
		}
		tr.Close()
	}
}

// TestTailDurableBoundSemantics: a frame past the durable frontier is
// withheld even when fully visible, and a malformed frame strictly below
// the frontier is corruption, not an incomplete tail.
func TestTailDurableBoundSemantics(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	if _, err := l.Append("insert", payload(1, "")); err != nil {
		t.Fatal(err)
	}
	firstEnd, _, _ := l.DurableFrontier()
	if _, err := l.Append("insert", payload(2, "")); err != nil {
		t.Fatal(err)
	}
	tr := openTailT(t, l.Path())
	if rec, err := tr.Next(firstEnd); err != nil || rec.LSN != 1 {
		t.Fatalf("rec=%+v err=%v", rec, err)
	}
	// Fully written second frame, but the caller's frontier stops at the
	// first: cleanly caught up at the boundary, withheld as incomplete
	// when the frontier lands mid-frame.
	if _, err := tr.Next(firstEnd); err != io.EOF {
		t.Fatalf("at frontier: err = %v, want io.EOF", err)
	}
	if _, err := tr.Next(firstEnd + 4); err != ErrIncompleteTail {
		t.Fatalf("frontier mid-frame: err = %v, want ErrIncompleteTail", err)
	}
	durable, _, _ := l.DurableFrontier()
	if rec, err := tr.Next(durable); err != nil || rec.LSN != 2 {
		t.Fatalf("rec=%+v err=%v", rec, err)
	}

	// Corrupt the second frame's payload in place: below the durable
	// frontier that is damage, not a write in progress.
	raw, err := os.ReadFile(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(l.Path(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tr2 := openTailT(t, l.Path())
	if rec, err := tr2.Next(durable); err != nil || rec.LSN != 1 {
		t.Fatalf("rec=%+v err=%v", rec, err)
	}
	if _, err := tr2.Next(durable); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt below frontier: err = %v, want ErrCorrupt", err)
	}
}

func TestTailCorruptLengthField(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	if _, err := l.Append("insert", payload(1, "")); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(l.Path(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxRecordBytes+1)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tr := openTailT(t, l.Path())
	if _, err := tr.Next(-1); err != nil {
		t.Fatal(err)
	}
	// An out-of-range length can never become valid, durable bound or not.
	if _, err := tr.Next(-1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTailRotationDetected(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	for i := 1; i <= 3; i++ {
		if _, err := l.Append("insert", payload(i, "padding to make frames non-trivial")); err != nil {
			t.Fatal(err)
		}
	}
	tr := openTailT(t, l.Path())
	durable, gen0, _ := l.DurableFrontier()
	for i := 1; i <= 3; i++ {
		if _, err := tr.Next(durable); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint rotation: the file shrinks to empty under the reader.
	if err := l.Reset(3); err != nil {
		t.Fatal(err)
	}
	if _, gen1, _ := l.DurableFrontier(); gen1 == gen0 {
		t.Fatal("Reset did not bump the checkpoint generation")
	}
	if _, err := tr.Next(-1); err != ErrRotated {
		t.Fatalf("err = %v, want ErrRotated", err)
	}
}

func TestStageRecordExplicitLSNs(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	for _, lsn := range []uint64{3, 4, 9} { // gap: a resync jumped the sequence
		tok, err := l.StageRecord(Record{LSN: lsn, Type: "insert", Data: []byte(`{"n":1}`)})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(tok); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.LastLSN(); got != 9 {
		t.Fatalf("LastLSN = %d, want 9", got)
	}
	if _, err := l.StageRecord(Record{LSN: 9, Type: "insert"}); err == nil {
		t.Fatal("staging a stale LSN succeeded")
	}
	if _, err := l.StageRecord(Record{LSN: 0, Type: "insert"}); err == nil {
		t.Fatal("staging LSN 0 succeeded")
	}
	// The staged records replay with their assigned LSNs intact.
	var lsns []uint64
	if _, err := Replay(l.Path(), 0, func(r Record) error {
		lsns = append(lsns, r.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 3 || lsns[0] != 3 || lsns[1] != 4 || lsns[2] != 9 {
		t.Fatalf("replayed LSNs = %v", lsns)
	}
}

func TestSubscribeDurableWakesOnCommitResetAndDeath(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	ch := make(chan struct{}, 1)
	l.SubscribeDurable(ch)
	drain := func() {
		select {
		case <-ch:
		default:
		}
	}
	if _, err := l.Append("insert", payload(1, "")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("no wakeup after commit")
	}
	drain()
	if err := l.Reset(1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("no wakeup after reset")
	}
	drain()
	l.Kill()
	select {
	case <-ch:
	default:
		t.Fatal("no wakeup after kill")
	}
	if _, _, dead := l.DurableFrontier(); !dead {
		t.Fatal("frontier does not report death")
	}
	l.UnsubscribeDurable(ch)
	if _, _, _ = l.DurableFrontier(); len(l.subs) != 0 {
		t.Fatal("unsubscribe left the subscriber registered")
	}
}

// FuzzTailReader feeds arbitrary file bytes to a tail reader: every call
// yields a record or one of the documented errors, never a panic, and a
// returned record advances the LSN.
func FuzzTailReader(f *testing.F) {
	var log []byte
	for i, typ := range []string{"insert", "annotate", "m"} {
		frame, err := AppendFrame(nil, Record{LSN: uint64(i + 1), Type: typ, Data: []byte(payload(i, typ))})
		if err != nil {
			f.Fatal(err)
		}
		log = append(log, frame...)
	}
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add(append(append([]byte{}, log...), rawFrame([]byte(`{"lsn":9,"type":"m"}`))...))
	f.Add(rawFrame([]byte{formatVersion, 0x80}))
	f.Add([]byte{})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := OpenTail(path)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		var prev uint64
		for {
			rec, err := tr.Next(-1)
			if err == nil {
				if rec.LSN <= prev {
					t.Fatalf("LSN %d after %d", rec.LSN, prev)
				}
				prev = rec.LSN
				continue
			}
			if err != io.EOF && !errors.Is(err, ErrIncompleteTail) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormat) {
				t.Fatalf("undocumented error %v", err)
			}
			return
		}
	})
}
