package engine

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/types"
	"insightnotes/internal/wal"
)

// testRecord is one record of a hand-built checkpoint stream.
type testRecord struct {
	typ string
	p   walPayload
}

// frameRecords frames recs as a stream, numbering them from 1, without a
// trailer.
func frameRecords(t testing.TB, recs ...testRecord) []byte {
	t.Helper()
	var out []byte
	for i, r := range recs {
		var err error
		if out, err = wal.AppendFrame(out, wal.Record{LSN: uint64(i + 1), Type: r.typ, Data: encodeWALBody(r.p)}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkpointOf frames recs as a checkpoint stream ending in a trailer that
// counts them.
func checkpointOf(t testing.TB, recs ...testRecord) []byte {
	t.Helper()
	return frameRecords(t, append(recs, testRecord{walTypeCheckpoint, &walCheckpoint{Records: uint64(len(recs))}})...)
}

// checkpointRecords decodes a checkpoint stream into its records (before
// the trailer) and its trailer.
func checkpointRecords(t testing.TB, raw []byte) ([]testRecord, *walCheckpoint) {
	t.Helper()
	var recs []testRecord
	trailer, err := readCheckpoint(raw, func(rec wal.Record) error {
		p, err := decodeRecord(rec.Type, rec.Data)
		recs = append(recs, testRecord{rec.Type, p})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, trailer
}

// rawFrame frames payload — format byte included — with a valid CRC.
func rawFrame(payload []byte) []byte {
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// Payloads the cases below build streams from.
var (
	tableT   = testRecord{walTypeCreateTable, &walCreateTable{Name: "t", Columns: []types.Column{{Name: "a", Kind: types.KindInt}}}}
	rowT1    = testRecord{walTypeInsert, &walRows{Table: "t", Rows: []walRow{{ID: 1, Values: types.Tuple{types.NewInt(1)}}}}}
	classC   = testRecord{walTypeCreateInstance, &walCreateInstance{Instance: `{"name": "c", "type": "Classifier", "model": {"labels": ["x", "y"], "doc_count": [0, 0], "term_count": [0, 0], "terms": [{}, {}]}}`}}
	snippetS = testRecord{walTypeCreateInstance, &walCreateInstance{Instance: `{"name": "s", "type": "Snippet", "snippet_sentences": 2}`}}
)

// annotateT is an annotate record of one annotation on row of t.
func annotateT(id annotation.ID, row types.RowID, labels, targetLabels map[string]int) testRecord {
	return testRecord{walTypeAnnotate, &walAnnotate{Anns: []walAnnotation{{Annotation: annotation.Annotation{ID: id, Text: "x"}, Labels: labels,
		Targets: []walTarget{{Target: annotation.Target{Table: "t", Row: row, Columns: 1}, Labels: targetLabels}}}}}}
}

// labeled is a one-row checkpoint with a two-label classifier c and a
// snippet instance s linked to t, and one annotation carrying labels and
// targetLabels.
func labeled(t testing.TB, labels, targetLabels map[string]int) string {
	return string(checkpointOf(t, tableT, rowT1, classC, snippetS,
		testRecord{walTypeLink, &walLink{Instance: "c", Table: "t"}},
		testRecord{walTypeLink, &walLink{Instance: "s", Table: "t"}},
		annotateT(1, 1, labels, targetLabels)))
}

// TestLoadCorruptSnapshotTable feeds Load broken checkpoints: each must
// produce a descriptive error — never a panic, and never a silently
// half-loaded engine. A corrupt checkpoint is exactly what a recovery path
// sees after disk trouble, so this is the first line of the durability
// defence. The semantic checks live on the redo path every reader shares.
func TestLoadCorruptSnapshotTable(t *testing.T) {
	valid := checkpointOf(t, tableT, rowT1, annotateT(1, 1, nil, nil))
	flipped := bytes.Clone(valid)
	flipped[10] ^= 0x01 // inside the first record's payload
	cases := []struct {
		name    string
		input   string
		wantSub string // substring the error must contain
	}{
		{"empty input", "", "without its trailer"},
		{"truncated json", `{"version": 1, "tables": [{"name": "t", "col`, "JSON snapshot from an older build"},
		{"json snapshot", `{"version":1,"tables":[],"instances":[],"links":[],"annotations":[]}`, "JSON snapshot from an older build"},
		{"not json at all", "\x00\x01\x02 garbage", "corrupt checkpoint"},
		// A stream of format-2 frames: the log format before annotate
		// records carried labels.
		{"unsupported version", string(rawFrame([]byte{2, 1, 1, 'x'})), "format 2"},
		{"zero version", string(rawFrame([]byte{0, 1, 1, 'x'})), "format 0"},
		{"truncated stream", string(valid[:len(valid)-3]), "corrupt checkpoint"},
		{"missing trailer", string(frameRecords(t, tableT, rowT1)), "without its trailer"},
		{"trailer count mismatch", string(frameRecords(t, tableT, rowT1,
			testRecord{walTypeCheckpoint, &walCheckpoint{Records: 3}})), "the trailer counts 3 record(s), the stream holds 2"},
		{"bytes after the trailer", string(append(bytes.Clone(valid), frameRecords(t, tableT)...)), "byte(s) after the trailer"},
		{"flipped byte", string(flipped), "checksum mismatch"},
		{"unknown record type", string(checkpointOf(t, testRecord{"bulk_insert", &walName{Name: "t"}})), "unknown wal record type"},
		{"trailer names unknown table", string(frameRecords(t, tableT,
			testRecord{walTypeCheckpoint, &walCheckpoint{Records: 1, NextRows: []walNextRow{{Table: "ghost", Next: 9}}}})), "unknown table"},
		{"empty table name", string(checkpointOf(t, testRecord{walTypeCreateTable, &walCreateTable{Name: "", Columns: []types.Column{{Name: "a", Kind: types.KindInt}}}})), "table name required"},
		{"table without columns", string(checkpointOf(t, testRecord{walTypeCreateTable, &walCreateTable{Name: "t"}})), "needs at least one column"},
		{"duplicate table names", string(checkpointOf(t, tableT, tableT)), "create_table record 2"},
		{"duplicate row ids", string(checkpointOf(t, tableT, rowT1, rowT1)), "already has row 1"},
		{"index on unknown column", string(checkpointOf(t, tableT, testRecord{walTypeCreateIndex, &walCreateIndex{Table: "t", Column: "nope"}})), "create_index record 2"},
		{"instance garbage", string(checkpointOf(t, testRecord{walTypeCreateInstance, &walCreateInstance{Instance: `{"name": "x", "type": "NoSuchType"}`}})), "create_instance record 1"},
		{"link to unknown table", string(checkpointOf(t, classC, testRecord{walTypeLink, &walLink{Instance: "c", Table: "ghost"}})), "link record 2"},
		{"annotation with invalid id", string(checkpointOf(t, tableT, rowT1, annotateT(0, 1, nil, nil))), "invalid id"},
		{"annotation without targets", string(checkpointOf(t, testRecord{walTypeAnnotate, &walAnnotate{Anns: []walAnnotation{{Annotation: annotation.Annotation{ID: 1, Text: "x"}}}}})), "no targets"},
		{"annotation targeting unknown table", string(checkpointOf(t, annotateT(1, 1, nil, nil))), "unknown table"},
		{"annotation targeting missing row", string(checkpointOf(t, tableT, rowT1, annotateT(1, 99, nil, nil))), "missing row"},
		{"label index outside the classifier's labels", labeled(t, map[string]int{"c": 5}, nil), "label index 5 outside the 2 labels"},
		{"per-target label outside the classifier's labels", labeled(t, map[string]int{"c": 0}, map[string]int{"c": -1}), "label index -1 outside"},
		{"label recorded for a snippet instance", labeled(t, map[string]int{"s": 0}, nil), "label recorded for Snippet instance"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked: %v", r)
				}
			}()
			_, err := Load(strings.NewReader(tc.input), Config{CacheDir: t.TempDir(), DisableMetrics: true})
			if err == nil {
				t.Fatal("Load accepted a corrupt checkpoint")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	db, err := Load(bytes.NewReader(valid), Config{CacheDir: t.TempDir(), DisableMetrics: true})
	if err != nil {
		t.Fatalf("the stream the cases break does not load: %v", err)
	}
	db.Close()
}
