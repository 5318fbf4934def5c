package trace

import (
	"time"

	"insightnotes/internal/codec"
)

// Retained traces are sealed: the span tree — the pointer-rich bulk of a
// trace — is flattened into one pointer-free byte buffer at Add time and
// decoded back into Spans only when a single trace is actually read
// (SHOW TRACE, /traces). A full ring of live traces would otherwise be
// tens of thousands of heap pointers the garbage collector re-marks every
// cycle; sealed, the ring is a handful of strings per trace plus noscan
// buffers, and the mark cost of retention disappears from the statement
// path. Encoding runs only for retained traces (the sampled few plus slow
// and errored), decoding only on the human-driven read path, so both sides
// are off the hot path by construction.
//
// Layout, in internal/codec's encoding: span count, then per span: name,
// parent (-1 for the root), start, dur, attr count, then per attr: key,
// kind byte, and a kind-dependent payload — a string, a varint, or a
// Float64. The bytes never leave the process.

// sealed is one retained trace in its GC-quiet resting form. The header
// fields SHOW TRACES lists stay directly readable; spans live in enc.
type sealed struct {
	id    ID
	start time.Time
	dur   time.Duration
	slow  bool
	kind  string
	stmt  string
	err   string
	enc   []byte
}

// sealSpans flattens a completed trace's spans.
func sealSpans(spans []Span) []byte {
	n := 16
	for _, sp := range spans {
		n += len(sp.Name) + 24
		for _, a := range sp.Attrs {
			n += len(a.Key) + len(a.s) + 16
		}
	}
	w := codec.NewWriter(make([]byte, 0, n))
	w.Uvarint(uint64(len(spans)))
	for _, sp := range spans {
		w.Str(sp.Name)
		w.Varint(int64(sp.Parent))
		w.Varint(int64(sp.Start))
		w.Varint(int64(sp.Dur))
		w.Uvarint(uint64(len(sp.Attrs)))
		for _, a := range sp.Attrs {
			w.Str(a.Key)
			w.Byte(byte(a.kind))
			switch a.kind {
			case attrInt:
				w.Varint(a.i)
			case attrFloat:
				w.Float64(a.f)
			default:
				w.Str(a.s)
			}
		}
	}
	return w.Bytes()
}

// The fewest bytes a sealed span and a sealed attr take, which bound the
// counts a damaged buffer may claim.
const (
	minSpanBytes = 5
	minAttrBytes = 3
)

// unseal reconstructs the full Trace. Every call returns a fresh copy, so
// readers can never alias each other or the (long recycled) builder. A
// damaged buffer yields the spans decoded before the damage.
func (s *sealed) unseal() *Trace {
	t := &Trace{
		ID:        s.id,
		Statement: s.stmt,
		Kind:      s.kind,
		Start:     s.start,
		Dur:       s.dur,
		Err:       s.err,
		Slow:      s.slow,
	}
	r := codec.NewReader(s.enc)
	count := r.Count(minSpanBytes)
	t.Spans = make([]Span, 0, count)
	for i := 0; i < count; i++ {
		sp := Span{
			Name:   r.Str(),
			Parent: r.Int(),
			Start:  time.Duration(r.Varint()),
			Dur:    time.Duration(r.Varint()),
		}
		if nattr := r.Count(minAttrBytes); nattr > 0 {
			sp.Attrs = make([]Attr, 0, nattr)
			for j := 0; j < nattr; j++ {
				a := Attr{Key: r.Str(), kind: attrKind(r.Byte())}
				switch a.kind {
				case attrInt:
					a.i = r.Varint()
				case attrFloat:
					a.f = r.Float64()
				default:
					a.s = r.Str()
				}
				sp.Attrs = append(sp.Attrs, a)
			}
		}
		if r.Err() != nil {
			break
		}
		t.Spans = append(t.Spans, sp)
	}
	return t
}
