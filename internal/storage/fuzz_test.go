package storage

import (
	"bytes"
	"testing"

	"insightnotes/internal/types"
)

// FuzzPageRoundTrip drives a slotted page through an arbitrary sequence of
// inserts, deletes, and delete-then-reinserts decoded from the fuzz input,
// then checks the invariants the integrity machinery depends on: Verify
// passes on every page the API can produce, the checksum round-trips
// through a stamp, and every live record is retrievable at its slot.
func FuzzPageRoundTrip(f *testing.F) {
	f.Add([]byte{0, 5, 'h', 'e', 'l', 'l', 'o', 1, 0, 0, 4, 'n', 'e', 'x', 't'})
	f.Add([]byte{0, 1, 'a', 0, 1, 'b', 1, 0, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		var p Page
		p.Reset()
		live := map[uint16][]byte{} // model of what the page should hold
		for len(script) > 0 {
			op := script[0]
			script = script[1:]
			switch op % 4 {
			case 0, 3: // insert: next byte is a length, then that many data bytes
				if len(script) == 0 {
					return
				}
				n := int(script[0])
				script = script[1:]
				if n > len(script) {
					n = len(script)
				}
				rec := script[:n]
				script = script[n:]
				slot, err := p.Insert(rec)
				if err == nil {
					live[slot] = append([]byte(nil), rec...)
				}
			case 1: // delete: next byte selects the slot
				if len(script) == 0 {
					return
				}
				slot := uint16(script[0])
				script = script[1:]
				if p.Delete(slot) == nil {
					delete(live, slot)
				}
			case 2: // replace: slot byte, length byte, data; the slot is
				// deleted and the record inserted into whichever slot
				// Insert picks
				if len(script) < 2 {
					return
				}
				slot := uint16(script[0])
				n := int(script[1])
				script = script[2:]
				if n > len(script) {
					n = len(script)
				}
				rec := script[:n]
				script = script[n:]
				if p.Delete(slot) == nil {
					delete(live, slot)
				}
				if s, err := p.Insert(rec); err == nil {
					live[s] = append([]byte(nil), rec...)
				}
			}
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("API-produced page fails Verify: %v", err)
		}
		p.StampChecksum()
		if err := p.VerifyChecksum(0); err != nil {
			t.Fatalf("checksum round trip: %v", err)
		}
		// Every modeled record is retrievable.
		for slot, want := range live {
			if got, err := p.Get(slot); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("slot %d = %q, %v; want %q", slot, got, err, want)
			}
		}
	})
}

// FuzzPageRawBytes feeds arbitrary bytes into a page's read paths: no
// input may cause a panic or an out-of-bounds slice — a hostile slot
// directory must surface as ErrPageCorrupt / ErrNoSuchRecord, never as a
// crash. This is the contract the buffer pool's read-verification and the
// scrubber rely on when walking possibly-rotten pages.
func FuzzPageRawBytes(f *testing.F) {
	var seed Page
	seed.Reset()
	seed.Insert([]byte("seed record"))
	f.Add(seed[:pageHeaderSize+16])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var p Page
		copy(p[:], raw)
		p.Verify()          // may error, must not panic
		p.VerifyChecksum(0) // may error, must not panic
		for slot := uint16(0); slot < 8; slot++ {
			p.Get(slot)
			p.Delete(slot)
		}
		p.Records(func(slot uint16, data []byte) bool {
			if len(data) > 0 {
				_ = data[len(data)-1] // force the bounds to be real
			}
			return true
		})
	})
}

// FuzzDecodeKey checks the order-preserving key decoder against arbitrary
// bytes: garbage must return an error, never panic, and any input that
// decodes must re-encode to a stable fixed point — decode∘encode applied
// twice yields byte-identical keys (the decoder normalizes at most once,
// e.g. a BOOL payload byte of 2 normalizes to 1).
func FuzzDecodeKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(EncodeKey(nil, types.NewInt(42)))
	f.Add(EncodeKey(nil, types.NewString("fuzz")))
	f.Add(encodeTuple(types.NewInt(-1), types.NewString("x\x00y")))
	f.Fuzz(func(t *testing.T, b []byte) {
		v, _, err := DecodeKey(b)
		if err == nil {
			e1 := EncodeKey(nil, v)
			v2, rest, err := DecodeKey(e1)
			if err != nil || len(rest) != 0 {
				t.Fatalf("re-decode of encoded %v: %v (rest %x)", v, err, rest)
			}
			if e2 := EncodeKey(nil, v2); !bytes.Equal(e1, e2) {
				t.Fatalf("encoding not a fixed point: %x vs %x", e1, e2)
			}
		}
		decodeTuple(b) // may error, must not panic
	})
}
