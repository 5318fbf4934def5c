package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// A record stream is a sequence of log frames held outside a log: the
// engine writes its checkpoints as one. Nothing appends to a stream while
// it is read, so it is read strictly: a short or damaged frame anywhere is
// corruption, never a torn tail to cut away.

// SplitFrame parses the frame a stream b starts with and returns its record
// and the bytes after it. A short or damaged frame is ErrCorrupt, an intact
// frame of another format ErrFormat.
func SplitFrame(b []byte) (Record, []byte, error) {
	if len(b) < headerBytes {
		return Record{}, nil, fmt.Errorf("%w: short frame header", ErrCorrupt)
	}
	length := binary.LittleEndian.Uint32(b)
	if length == 0 || length > maxRecordBytes || int(length) > len(b)-headerBytes {
		return Record{}, nil, fmt.Errorf("%w: frame length %d with %d byte(s) left", ErrCorrupt, length, len(b)-headerBytes)
	}
	payload := b[headerBytes : headerBytes+length]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return Record{}, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	rec, err := parsePayload(payload)
	return rec, b[headerBytes+length:], err
}
