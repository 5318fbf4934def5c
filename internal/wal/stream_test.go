package wal

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// A stream is read strictly: its records come back as framed, and a
// stream cut anywhere but between frames, or with one flipped byte, is
// ErrCorrupt.
func TestSplitFrameIsStrict(t *testing.T) {
	recs := []Record{{LSN: 1, Type: "a", Data: []byte("first")}, {LSN: 2, Type: "b", Data: []byte{}}, {LSN: 3, Type: "c", Data: []byte("third")}}
	var stream []byte
	ends := map[int]bool{}
	for _, rec := range recs {
		var err error
		if stream, err = AppendFrame(stream, rec); err != nil {
			t.Fatal(err)
		}
		ends[len(stream)] = true
	}
	rest := stream
	for _, want := range recs {
		got, after, err := SplitFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
		rest = after
	}
	if len(rest) != 0 {
		t.Fatalf("%d byte(s) left after the last frame", len(rest))
	}

	readAll := func(b []byte) error {
		for len(b) > 0 {
			var err error
			if _, b, err = SplitFrame(b); err != nil {
				return err
			}
		}
		return nil
	}
	for n := 1; n < len(stream); n++ {
		err := readAll(stream[:n])
		if err == nil && !ends[n] {
			t.Fatalf("a stream cut at byte %d of %d read cleanly", n, len(stream))
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: err = %v, want ErrCorrupt", n, err)
		}
	}
	for i := range stream {
		flipped := bytes.Clone(stream)
		flipped[i] ^= 0x01
		if err := readAll(flipped); err == nil {
			t.Fatalf("a flipped byte %d read cleanly", i)
		}
	}
	if err := readAll(rawFrame([]byte{2, 1, 1, 'm'})); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "format 2") {
		t.Fatalf("a format-2 frame: err = %v, want ErrFormat naming format 2", err)
	}
}
