package engine

import (
	"strings"
	"testing"
)

// TestLoadCorruptSnapshotTable fuzzes Load with structurally broken
// snapshots: each must produce a descriptive error — never a panic, and
// never a silently half-loaded engine. A corrupt snapshot is exactly
// what a recovery path sees after disk trouble, so this is the
// first line of the durability defence.
func TestLoadCorruptSnapshotTable(t *testing.T) {
	cases := []struct {
		name    string
		input   string
		wantSub string // substring the error must contain
	}{
		{
			name:    "empty input",
			input:   "",
			wantSub: "corrupt snapshot",
		},
		{
			name:    "truncated json",
			input:   `{"version": 1, "tables": [{"name": "t", "col`,
			wantSub: "corrupt snapshot",
		},
		{
			name:    "not json at all",
			input:   "\x00\x01\x02 garbage",
			wantSub: "corrupt snapshot",
		},
		{
			name:    "unsupported version",
			input:   `{"version": 99}`,
			wantSub: "unsupported snapshot version 99",
		},
		{
			name:    "zero version",
			input:   `{"version": 0, "tables": []}`,
			wantSub: "unsupported snapshot version",
		},
		{
			name:    "empty table name",
			input:   `{"version": 1, "tables": [{"name": "", "columns": [{"name": "a", "kind": 1}]}]}`,
			wantSub: "empty name",
		},
		{
			name:    "table without columns",
			input:   `{"version": 1, "tables": [{"name": "t", "columns": []}]}`,
			wantSub: "no columns",
		},
		{
			name: "duplicate table names",
			input: `{"version": 1, "tables": [
				{"name": "t", "columns": [{"name": "a", "kind": 1}]},
				{"name": "t", "columns": [{"name": "a", "kind": 1}]}]}`,
			wantSub: "corrupt snapshot",
		},
		{
			name: "duplicate row ids",
			input: `{"version": 1, "tables": [{"name": "t",
				"columns": [{"name": "a", "kind": 1}],
				"rows": [{"id": 1, "values": [{"int": 1}]}, {"id": 1, "values": [{"int": 2}]}]}]}`,
			wantSub: "corrupt snapshot",
		},
		{
			name: "index on unknown column",
			input: `{"version": 1, "tables": [{"name": "t",
				"columns": [{"name": "a", "kind": 1}], "indexes": ["nope"]}]}`,
			wantSub: "index",
		},
		{
			name:    "instance garbage",
			input:   `{"version": 1, "tables": [], "instances": [{"name": "x", "type": "NoSuchType"}]}`,
			wantSub: "instance",
		},
		{
			name:    "link to unknown table",
			input:   `{"version": 1, "tables": [], "instances": [], "links": [{"instance": "c", "table": "ghost"}]}`,
			wantSub: "link",
		},
		{
			name: "annotation with invalid id",
			input: `{"version": 1, "tables": [{"name": "t", "columns": [{"name": "a", "kind": 1}],
				"rows": [{"id": 1, "values": [{"int": 1}]}]}],
				"annotations": [{"id": 0, "text": "x", "targets": [{"table": "t", "row": 1, "cols": 1}]}]}`,
			wantSub: "invalid id",
		},
		{
			name: "annotation without targets",
			input: `{"version": 1, "tables": [],
				"annotations": [{"id": 1, "text": "x", "targets": []}]}`,
			wantSub: "no targets",
		},
		{
			name: "annotation targeting unknown table",
			input: `{"version": 1, "tables": [],
				"annotations": [{"id": 1, "text": "x", "targets": [{"table": "ghost", "row": 1, "cols": 1}]}]}`,
			wantSub: "unknown table",
		},
		{
			name: "annotation targeting missing row",
			input: `{"version": 1, "tables": [{"name": "t", "columns": [{"name": "a", "kind": 1}],
				"rows": [{"id": 1, "values": [{"int": 1}]}]}],
				"annotations": [{"id": 1, "text": "x", "targets": [{"table": "t", "row": 99, "cols": 1}]}]}`,
			wantSub: "missing row",
		},
		{
			name:    "label index outside the classifier's labels",
			input:   labeledSnapshot(`"labels": {"c": 5}`, ``),
			wantSub: "label index 5 outside the 2 labels",
		},
		{
			name:    "per-target label outside the classifier's labels",
			input:   labeledSnapshot(`"labels": {"c": 0}`, `, "labels": {"c": -1}`),
			wantSub: "label index -1 outside",
		},
		{
			name:    "label recorded for a snippet instance",
			input:   labeledSnapshot(`"labels": {"s": 0}`, ``),
			wantSub: "label recorded for Snippet instance",
		},
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
				t.Fatal("Load accepted a corrupt snapshot")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// labeledSnapshot is a one-row snapshot with a two-label classifier c and
// a snippet instance s linked to t, and one annotation carrying ann (its
// annotation-level fields) and target (appended to its one target).
func labeledSnapshot(ann, target string) string {
	return `{"version": 1, "tables": [{"name": "t", "columns": [{"name": "a", "kind": 1}],
		"rows": [{"id": 1, "values": [{"int": 1}]}]}],
		"instances": [
			{"name": "c", "type": "Classifier", "model": {"labels": ["x", "y"], "doc_count": [0, 0], "term_count": [0, 0], "terms": [{}, {}]}},
			{"name": "s", "type": "Snippet", "snippet_sentences": 2}],
		"links": [{"instance": "c", "table": "t"}, {"instance": "s", "table": "t"}],
		"annotations": [{"id": 1, "text": "x", "targets": [{"table": "t", "row": 1, "cols": 1` + target + `}], ` + ann + `}]}`
}
