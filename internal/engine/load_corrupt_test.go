package engine

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/codec"
	"insightnotes/internal/summary"
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
	classC   = testRecord{walTypeCreateInstance, &walCreateInstance{Instance: trainedClassifier("c")}}
	snippetS = testRecord{walTypeCreateInstance, &walCreateInstance{Instance: &summary.Instance{Name: "s", Type: summary.TypeSnippet, SnippetSentences: 2}}}
)

// annotateT is an annotate record of one annotation on row of t.
func annotateT(id annotation.ID, row types.RowID) testRecord {
	return testRecord{walTypeAnnotate, &walAnnotate{Anns: []walAnnotation{{Annotation: annotation.Annotation{ID: id, Text: "x"},
		Targets: []annotation.Target{{Table: "t", Row: row, Columns: 1}}}}}}
}

// envelopeBody encodes an envelope that holds annotation 1, on column 0,
// in the classifier object of instance, under label.
func envelopeBody(instance string, label uint64) []byte {
	w := codec.NewWriter(nil)
	w.Uvarint(1) // coverage: annotation 1 on column 0
	w.Uvarint(1)
	w.Uvarint(1)
	w.Uvarint(1) // one object
	w.Str(instance)
	w.Uvarint(1) // one member: annotation 1 under label
	w.Uvarint(1)
	w.Uvarint(label)
	return w.Bytes()
}

// summaryT is a summary record of table holding body for each row.
func summaryT(table string, body []byte, rows ...types.RowID) testRecord {
	p := &walSummaries{Table: table}
	for _, row := range rows {
		p.Envs = append(p.Envs, walEnvelope{Row: row, Body: body})
	}
	return testRecord{walTypeSummary, p}
}

// withSummaries is a one-row checkpoint with a two-label classifier c and
// a snippet instance s linked to t, one annotation on the row, and sums.
func withSummaries(t testing.TB, sums ...testRecord) string {
	return string(checkpointOf(t, append([]testRecord{tableT, rowT1, classC, snippetS,
		{walTypeLink, &walLink{Instance: "c", Table: "t"}},
		{walTypeLink, &walLink{Instance: "s", Table: "t"}},
		annotateT(1, 1)}, sums...)...))
}

// TestLoadCorruptSnapshotTable feeds Load broken checkpoints: each must
// produce a descriptive error — never a panic, and never a silently
// half-loaded engine. A corrupt checkpoint is exactly what a recovery path
// sees after disk trouble, so this is the first line of the durability
// defence. The semantic checks live on the redo path every reader shares.
func TestLoadCorruptSnapshotTable(t *testing.T) {
	valid := checkpointOf(t, tableT, rowT1, annotateT(1, 1))
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
		// Streams of format-2 and format-3 frames: the log formats before
		// checkpoints stored summary objects.
		{"unsupported version", string(rawFrame([]byte{2, 1, 1, 'x'})), "format 2"},
		{"format-3 checkpoint", string(rawFrame([]byte{3, 1, 1, 'x'})), "format 3"},
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
		{"instance garbage", string(checkpointOf(t, testRecord{walTypeCreateInstance, &walCreateInstance{Instance: &summary.Instance{Name: "x", Type: "NoSuchType"}}})), "create_instance record 1"},
		{"link to unknown table", string(checkpointOf(t, classC, testRecord{walTypeLink, &walLink{Instance: "c", Table: "ghost"}})), "link record 2"},
		{"annotation with invalid id", string(checkpointOf(t, tableT, rowT1, annotateT(0, 1))), "invalid id"},
		{"annotation without targets", string(checkpointOf(t, testRecord{walTypeAnnotate, &walAnnotate{Anns: []walAnnotation{{Annotation: annotation.Annotation{ID: 1, Text: "x"}}}}})), "no targets"},
		{"annotation targeting unknown table", string(checkpointOf(t, annotateT(1, 1))), "unknown table"},
		{"annotation targeting missing row", string(checkpointOf(t, tableT, rowT1, annotateT(1, 99))), "missing row"},
		{"label index outside the classifier's labels", withSummaries(t, summaryT("t", envelopeBody("c", 5), 1)), "label 5 outside the 2 labels"},
		{"envelope of an unlinked instance", withSummaries(t, summaryT("t", envelopeBody("x", 0), 1)), `instance "x" is not linked`},
		{"envelope for a missing row", withSummaries(t, summaryT("t", envelopeBody("c", 0), 99)), "an envelope for missing row 99"},
		{"envelopes of an unknown table", withSummaries(t, summaryT("ghost", envelopeBody("c", 0), 1)), `envelopes of unknown table "ghost"`},
		{"two envelopes for a row", withSummaries(t, summaryT("t", envelopeBody("c", 0), 1), summaryT("t", envelopeBody("c", 1), 1)), "a second envelope for row 1"},
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
	for _, ok := range []string{string(valid), withSummaries(t, summaryT("t", envelopeBody("c", 1), 1))} {
		db, err := Load(strings.NewReader(ok), Config{CacheDir: t.TempDir(), DisableMetrics: true})
		if err != nil {
			t.Fatalf("a stream the cases break does not load: %v", err)
		}
		db.Close()
	}
}
