package engine

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"insightnotes/internal/annotation"
	"insightnotes/internal/codec"
	"insightnotes/internal/summary"
	"insightnotes/internal/textmining"
	"insightnotes/internal/types"
	"insightnotes/internal/wal"
)

// walRecordCases holds one payload per record type, every field set.
var walRecordCases = []struct {
	typ string
	p   walPayload
}{
	{walTypeCreateTable, &walCreateTable{Name: "birds", Columns: []types.Column{
		{Name: "id", Kind: types.KindInt}, {Name: "name", Kind: types.KindString}, {Name: "wingspan", Kind: types.KindFloat}}}},
	{walTypeCreateIndex, &walCreateIndex{Table: "birds", Column: "id"}},
	{walTypeDropTable, &walName{Name: "birds"}},
	{walTypeInsert, &walRows{Table: "birds", Rows: []walRow{
		{ID: 1, Values: []types.Value{types.NewInt(1), types.NewString("Swan Goose"), types.NewFloat(1.8)}},
		{ID: 1 << 40, Values: []types.Value{types.NewInt(-7), types.Null(), types.NewBool(true)}}}}},
	{walTypeUpdate, &walRows{Table: "birds", Rows: []walRow{
		{ID: 2, Values: []types.Value{types.NewInt(2), types.NewString("Mute Swan"), types.Null()}}}}},
	{walTypeDelete, &walDelete{Table: "birds", Rows: []types.RowID{3, 1, 1 << 33}}},
	{walTypeCreateInstance, &walCreateInstance{Instance: trainedClassifier("C", [2]string{"feeding foraging", "Behavior"})}},
	{walTypeDropInstance, &walName{Name: "C"}},
	{walTypeLink, &walLink{Instance: "C", Table: "birds", Unlink: true}},
	{walTypeAnnotate, &walAnnotate{Anns: []walAnnotation{
		{Annotation: annotation.Annotation{ID: 4, Author: "curator", Created: -12, Text: "observed feeding on stonewort", Title: "field notes", Document: "log 7"},
			Targets: []annotation.Target{{Table: "birds", Row: 1, Columns: annotation.ColSet(5)}, {Table: "birds", Row: 9, Columns: annotation.ColSet(1)}}},
		{Annotation: annotation.Annotation{ID: 1 << 35, Created: 1 << 50, Text: "flock at dawn"},
			Targets: []annotation.Target{{Table: "birds", Row: 2, Columns: annotation.ColSet(0)}}}}}},
	{walTypeDropAnnotation, &walDropAnnotation{ID: 17}},
	{walTypeTrain, &walTrain{Instance: "C", Samples: [][2]string{{"feeding foraging", "Behavior"}, {"photo record", "Other"}}}},
	{walTypeRebuild, &walName{Name: "birds"}},
	{walTypeSummary, &walSummaries{Table: "birds", Envs: []walEnvelope{{Row: 3, Body: []byte("an envelope")}, {Row: 1 << 40, Body: []byte{}}}}},
	{walTypeCheckpoint, &walCheckpoint{LSN: 1 << 36, NextRows: []walNextRow{{Table: "birds", Next: 10}, {Table: "obs", Next: 1}},
		NextAnnotation: 18, AnnClock: -3, Records: 12}},
}

// trainedClassifier is a two-label classifier instance trained on samples.
func trainedClassifier(name string, samples ...[2]string) *summary.Instance {
	model, err := textmining.NewNaiveBayes([]string{"Behavior", "Other"})
	if err != nil {
		panic(err)
	}
	for _, s := range samples {
		if err := model.Learn(s[0], s[1]); err != nil {
			panic(err)
		}
	}
	in, err := summary.NewClassifierInstance(name, model)
	if err != nil {
		panic(err)
	}
	return in
}

// declaredWALTypes returns the value of every walType* constant in
// walrecords.go: the closed set of record types a build writes.
func declaredWALTypes(t testing.TB) map[string]string {
	f, err := parser.ParseFile(token.NewFileSet(), "walrecords.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "walType") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s is not a string literal", name.Name)
				}
				val, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				out[val] = name.Name
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no walType constants found in walrecords.go")
	}
	return out
}

func encodeWALBody(p walPayload) []byte {
	w := codec.NewWriter(nil)
	p.encode(w)
	return w.Bytes()
}

// Every record type round-trips through its encoder, the log's frame, a
// tail reader and its decoder. A record type declared without a case here
// fails the test, so a new type cannot ship without a tested codec.
func TestWALRecordsRoundTrip(t *testing.T) {
	declared := declaredWALTypes(t)
	covered := map[string]bool{}
	for _, c := range walRecordCases {
		if _, ok := declared[c.typ]; !ok {
			t.Errorf("case %q is not a declared record type", c.typ)
		}
		covered[c.typ] = true
	}
	for typ, name := range declared {
		if !covered[typ] {
			t.Errorf("record type %s (%q) has no round-trip case", name, typ)
		}
	}

	path := filepath.Join(t.TempDir(), "wal.log")
	log, err := wal.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, c := range walRecordCases {
		if _, _, err := log.Stage(c.typ, encodeWALBody(c.p)); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := wal.OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, c := range walRecordCases {
		rec, err := tr.Next(-1)
		if err != nil {
			t.Fatalf("%s: %v", c.typ, err)
		}
		if rec.Type != c.typ {
			t.Fatalf("record type %q, want %q", rec.Type, c.typ)
		}
		got, err := decodeRecord(rec.Type, rec.Data)
		if err != nil {
			t.Fatalf("%s: %v", c.typ, err)
		}
		if !reflect.DeepEqual(got, c.p) {
			t.Errorf("%s round trip:\n got  %+v\n want %+v", c.typ, got, c.p)
		}
	}
}

// A body cut short, or followed by bytes its decoder does not read, is a
// corrupt record, never a shorter or a padded one.
func TestWALRecordsRejectTruncatedAndTrailingBodies(t *testing.T) {
	for _, c := range walRecordCases {
		body := encodeWALBody(c.p)
		for n := 0; n < len(body); n++ {
			if _, err := decodeRecord(c.typ, body[:n]); err == nil {
				t.Errorf("%s: %d of %d bytes decoded", c.typ, n, len(body))
			}
		}
		if _, err := decodeRecord(c.typ, append(body, 0)); err == nil {
			t.Errorf("%s: a trailing byte decoded", c.typ)
		}
	}
	if _, err := decodeRecord("bulk_insert", nil); err == nil || !strings.Contains(err.Error(), "unknown wal record type") {
		t.Errorf("retired type: err = %v", err)
	}
}

// A log of an older format is refused at open with an error naming its
// format and this build's, and the file is left byte for byte as it was:
// never truncated as a torn tail, which would drop every committed record
// in it. Format 1 wrote one JSON document per frame; format 3 wrote the
// binary records, with classifier labels on annotate records.
func TestOldFormatWALIsRefused(t *testing.T) {
	format3 := codec.NewWriter([]byte{3})
	format3.Uvarint(1)
	format3.Str(walTypeCreateTable)
	format3.Raw(encodeWALBody(walRecordCases[0].p))
	for format, payload := range map[string][]byte{
		"format 1": []byte(`{"lsn":1,"type":"create_table","data":{"name":"t","columns":[{"name":"id","kind":1}]}}`),
		"format 3": format3.Bytes(),
	} {
		frame := rawFrame(payload)
		dir := t.TempDir()
		path := filepath.Join(dir, walFileName)
		if err := os.WriteFile(path, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		db, _, err := OpenDurable(durableConfig(t), DurabilityOptions{Dir: dir, AutoCheckpointBytes: -1})
		if err == nil {
			db.Close()
			t.Fatalf("a %s log opened", format)
		}
		if !strings.Contains(err.Error(), format) || !strings.Contains(err.Error(), "format 4") {
			t.Errorf("err = %v, want it to name %s and format 4", err, format)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, frame) {
			t.Fatalf("the refused %s log changed: %d -> %d bytes", format, len(frame), len(after))
		}
	}
}

// FuzzWALRecord feeds arbitrary bodies to every record decoder: none may
// panic or allocate more than a small multiple of the body, and a body one
// accepts re-encodes to bytes that decode to the same payload.
func FuzzWALRecord(f *testing.F) {
	for _, c := range walRecordCases {
		f.Add(encodeWALBody(c.p))
	}
	declared := declaredWALTypes(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		for typ := range declared {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p, err := decodeRecord(typ, body)
			runtime.ReadMemStats(&after)
			if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(body)+64<<10); got > bound {
				t.Fatalf("%s: decoding %d bytes allocated %d, bound %d", typ, len(body), got, bound)
			}
			if err != nil {
				continue
			}
			again := encodeWALBody(p)
			back, err := decodeRecord(typ, again)
			if err != nil {
				t.Fatalf("%s: re-encoded body does not decode: %v", typ, err)
			}
			if third := encodeWALBody(back); !bytes.Equal(third, again) {
				t.Fatalf("%s: decode → encode → decode changed the body:\n%x\n%x", typ, again, third)
			}
		}
	})
}

// BenchmarkAnnotateDurable measures durable ADD ANNOTATION on a row whose
// envelope keeps growing: each row takes 256 annotations before the next
// one starts. Recorded in EXPERIMENTS.md (E23, E27).
func BenchmarkAnnotateDurable(b *testing.B) {
	const perRow = 256
	db, _, err := OpenDurable(Config{CacheDir: b.TempDir(), DisableMetrics: true},
		DurabilityOptions{Dir: b.TempDir(), AutoCheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	var rows strings.Builder
	rows.WriteString("BULK INSERT INTO birds VALUES ")
	for i := 0; i <= b.N/perRow; i++ {
		if i > 0 {
			rows.WriteString(", ")
		}
		fmt.Fprintf(&rows, "(%d, 'bird-%d')", i, i)
	}
	for _, stmt := range []string{
		"CREATE TABLE birds (id INT, name TEXT)",
		rows.String(),
		"CREATE INDEX ON birds (id)",
		"CREATE SUMMARY INSTANCE C TYPE Classifier LABELS ('Behavior', 'Other')",
		"TRAIN SUMMARY C ('feeding foraging stonewort', 'Behavior'), ('photo camera record', 'Other')",
		"CREATE SUMMARY INSTANCE S TYPE Snippet",
		"LINK SUMMARY C TO birds",
		"LINK SUMMARY S TO birds",
	} {
		if _, err := db.Exec(ctx, stmt); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt := fmt.Sprintf("ADD ANNOTATION 'observed feeding on stonewort, visit %d' ON birds WHERE id = %d", i, i/perRow)
		if _, err := db.Exec(ctx, stmt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "anns/sec")
}
