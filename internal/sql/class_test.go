package sql

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestClassification pins the classification table: the metric label and
// access class of every statement the parser can produce. The labels are
// the {kind} values of the engine's statement metrics and the trace kinds,
// so a change here is a change to dashboards.
func TestClassification(t *testing.T) {
	table := []struct {
		src    string
		kind   string
		access Access
	}{
		{"SELECT a FROM t", "select", Read},
		{"SHOW TABLES", "show", Read},
		{"SHOW METRICS", "show", NodeLocal},
		{"EXPLAIN ANALYZE SELECT a FROM t", "explain", Read},
		{"ZOOMIN REFERENCE QID 7 ON c INDEX 1", "zoomin", Read},
		{"CREATE TABLE t (a INT)", "create_table", Write},
		{"CREATE INDEX ON t (a)", "create_index", Write},
		{"DROP TABLE t", "drop_table", Write},
		{"INSERT INTO t VALUES (1)", "insert", Write},
		{"BULK INSERT INTO t VALUES (1), (2)", "bulk_insert", Write},
		{"UPDATE t SET a = 1", "update", Write},
		{"DELETE FROM t", "delete", Write},
		{"ADD ANNOTATION 'x' ON t", "annotate", Write},
		{"DROP ANNOTATION 3", "drop_annotation", Write},
		{"CREATE SUMMARY INSTANCE c TYPE Classifier LABELS ('a', 'b')", "create_summary", Write},
		{"DROP SUMMARY INSTANCE c", "drop_summary", Write},
		{"TRAIN SUMMARY c ('x', 'a')", "train", Write},
		{"LINK SUMMARY c TO t", "link", Write},
		{"UNLINK SUMMARY c FROM t", "link", Write},
		{"CHECKPOINT", "checkpoint", Write},
		{"CHECK TABLE t", "check", NodeLocal},
		{"PREPARE p AS SELECT a FROM t WHERE a = $1", "prepare", NodeLocal},
		{"EXECUTE p USING 1", "execute", NodeLocal},
		{"DEALLOCATE p", "deallocate", NodeLocal},
	}
	seen := map[string]bool{}
	for _, row := range table {
		stmt := mustParse(t, row.src)
		seen[fmt.Sprintf("%T", stmt)] = true
		if got := stmt.Class(); got.Kind != row.kind || got.Access != row.access {
			t.Errorf("%s: class %+v, want {%s %d}", row.src, got, row.kind, row.access)
		}
	}

	// Every statement type — every receiver of a Class method in ast.go —
	// has a row above.
	f, err := parser.ParseFile(token.NewFileSet(), "ast.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	types := 0
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "Class" || fd.Recv == nil {
			continue
		}
		types++
		name := "*sql." + fd.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name
		if !seen[name] {
			t.Errorf("%s has no row in the classification test", name)
		}
	}
	if types == 0 {
		t.Fatal("found no Class methods in ast.go")
	}
}
