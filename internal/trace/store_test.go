package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestStoreHammer drives the retained-trace ring the way a loaded server
// does: many writer goroutines completing traces while readers snapshot
// and look up concurrently (SHOW TRACES / SHOW TRACE under load). Run
// under -race this is the contention proof for the lock-striped store.
func TestStoreHammer(t *testing.T) {
	tr := New(Config{Sample: 1, SlowThreshold: time.Hour, Capacity: 64})
	const (
		writers         = 8
		tracesPerWriter = 500
		readers         = 4
	)
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := tr.Snapshot(20)
				if len(snap) > 20 {
					t.Error("snapshot ignored its limit")
					return
				}
				for i := 1; i < len(snap); i++ {
					if snap[i].Start.After(snap[i-1].Start) {
						t.Error("snapshot not most-recent-first under load")
						return
					}
				}
				// Re-fetch by id: every snapshotted trace must still render.
				for _, tc := range snap {
					if got, ok := tr.Get(tc.ID); ok {
						_ = RenderTree(got)
						_ = got.JSON()
					}
				}
				_ = tr.Stats()
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < tracesPerWriter; i++ {
				at := tr.Start(fmt.Sprintf("SELECT %d FROM w%d", i, w))
				sp := at.StartSpan(SpanExec, nil)
				sp.AttrInt("i", int64(i))
				sp.End()
				var err error
				if i%7 == 0 {
					err = errors.New("synthetic")
				}
				at.Finish("select", err)
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	st := tr.Stats()
	if st.Started != writers*tracesPerWriter {
		t.Fatalf("started = %d; want %d", st.Started, writers*tracesPerWriter)
	}
	if st.Retained != st.Started {
		t.Fatalf("sample 1 retained %d of %d", st.Retained, st.Started)
	}
	if st.Resident > 64 {
		t.Fatalf("resident %d exceeds capacity 64", st.Resident)
	}
	if st.Retained-st.Evicted != uint64(st.Resident) {
		t.Fatalf("retained %d - evicted %d != resident %d", st.Retained, st.Evicted, st.Resident)
	}
}

// TestStoreCapacityFloor checks the per-stripe minimum: a capacity below
// the stripe count still retains one trace per stripe rather than zero.
func TestStoreCapacityFloor(t *testing.T) {
	s := newStore(1)
	for n := uint64(1); n <= 2*storeStripes; n++ {
		s.Add(&Trace{ID: ID(n), Start: time.Unix(int64(n), 0)})
	}
	st := s.stats()
	if st.Resident != storeStripes {
		t.Fatalf("resident = %d; want one per stripe (%d)", st.Resident, storeStripes)
	}
}

// TestUnsealDamagedBuffer: a sealed buffer cut at any byte, or one that
// claims a name longer than any buffer, unseals without panicking to the
// spans decoded before the damage.
func TestUnsealDamagedBuffer(t *testing.T) {
	spans := []Span{
		{Name: "stmt", Parent: -1, Dur: 90 * time.Microsecond, Attrs: []Attr{
			{Key: "kind", s: "select"}, {Key: "rows", kind: attrInt, i: -12}}},
		{Name: "plan", Start: 3 * time.Microsecond, Dur: 20 * time.Microsecond, Attrs: []Attr{
			{Key: "ratio", kind: attrFloat, f: 0.5}}},
		{Name: "exec", Start: 30 * time.Microsecond, Dur: 50 * time.Microsecond},
	}
	enc := sealSpans(spans)
	if got := (&sealed{enc: enc}).unseal().Spans; !reflect.DeepEqual(got, spans) {
		t.Fatalf("unsealed %+v, sealed %+v", got, spans)
	}
	for n := 0; n < len(enc); n++ {
		got := (&sealed{enc: enc[:n]}).unseal().Spans
		if len(got) == len(spans) || !reflect.DeepEqual(got, spans[:len(got)]) {
			t.Errorf("cut at byte %d of %d: unsealed %+v", n, len(enc), got)
		}
	}
	huge := binary.AppendUvarint([]byte{1}, 1<<63)
	if got := (&sealed{enc: huge}).unseal().Spans; len(got) != 0 {
		t.Errorf("a name of 2^63 bytes unsealed to %+v", got)
	}
}
