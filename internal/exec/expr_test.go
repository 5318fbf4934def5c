package exec

import (
	"strings"
	"testing"

	"insightnotes/internal/sql"
	"insightnotes/internal/types"
)

// compileWhere parses "SELECT a FROM t WHERE <cond>" and compiles the
// condition against schema.
func compileWhere(t *testing.T, cond string, schema types.Schema) *Compiled {
	t.Helper()
	stmt, err := sql.Parse("SELECT x FROM t WHERE " + cond)
	if err != nil {
		t.Fatalf("parse %q: %v", cond, err)
	}
	c, err := Compile(stmt.(*sql.Select).Where, schema)
	if err != nil {
		t.Fatalf("compile %q: %v", cond, err)
	}
	return c
}

func exprSchema() types.Schema {
	return types.NewSchema(
		types.Column{Table: "t", Name: "a", Kind: types.KindInt},
		types.Column{Table: "t", Name: "b", Kind: types.KindFloat},
		types.Column{Table: "t", Name: "s", Kind: types.KindString},
		types.Column{Table: "t", Name: "f", Kind: types.KindBool},
	)
}

func exprRow() types.Tuple {
	return types.Tuple{
		types.NewInt(10), types.NewFloat(2.5), types.NewString("swan goose"), types.NewBool(true),
	}
}

func evalCond(t *testing.T, cond string) types.Value {
	t.Helper()
	c := compileWhere(t, cond, exprSchema())
	v, err := c.Eval(exprRow())
	if err != nil {
		t.Fatalf("eval %q: %v", cond, err)
	}
	return v
}

func TestExprComparisons(t *testing.T) {
	truthy := []string{
		"a = 10", "a <> 9", "a != 9", "a < 11", "a <= 10", "a > 9", "a >= 10",
		"b = 2.5", "a > b", "s = 'swan goose'", "f = TRUE",
		"a + 5 = 15", "a - 5 = 5", "a * 2 = 20", "a / 4 = 2.5", "a / 5 = 2",
		"-a = -10", "b * 2 = 5.0", "s + '!' = 'swan goose!'",
	}
	for _, cond := range truthy {
		if v := evalCond(t, cond); !v.Truthy() {
			t.Errorf("%q = %v, want true", cond, v)
		}
	}
	falsy := []string{"a = 9", "a < 10", "s = 'goose'", "f = FALSE"}
	for _, cond := range falsy {
		if v := evalCond(t, cond); v.Truthy() {
			t.Errorf("%q = true, want false", cond)
		}
	}
}

func TestExprNullSemantics(t *testing.T) {
	// Comparisons with NULL are NULL; IS NULL / IS NOT NULL are boolean.
	for _, cond := range []string{"a = NULL", "NULL <> 1", "a + NULL = 10", "NULL LIKE 'x'"} {
		if v := evalCond(t, cond); !v.IsNull() {
			t.Errorf("%q = %v, want NULL", cond, v)
		}
	}
	if v := evalCond(t, "a IS NULL"); v.Truthy() {
		t.Error("a IS NULL = true")
	}
	if v := evalCond(t, "a IS NOT NULL"); !v.Truthy() {
		t.Error("a IS NOT NULL = false")
	}
	// Kleene logic short-circuits.
	if v := evalCond(t, "a = 9 AND NULL = 1"); v.Truthy() || v.IsNull() {
		t.Errorf("false AND NULL = %v, want false", v)
	}
	if v := evalCond(t, "a = 10 OR NULL = 1"); !v.Truthy() {
		t.Errorf("true OR NULL = %v, want true", v)
	}
	if v := evalCond(t, "a = 10 AND NULL = 1"); !v.IsNull() {
		t.Errorf("true AND NULL = %v, want NULL", v)
	}
	if v := evalCond(t, "NOT (NULL = 1)"); !v.IsNull() {
		t.Errorf("NOT NULL = %v, want NULL", v)
	}
}

func TestExprDivisionByZero(t *testing.T) {
	if v := evalCond(t, "a / 0 IS NULL"); !v.Truthy() {
		t.Error("division by zero did not yield NULL")
	}
}

func TestExprLike(t *testing.T) {
	cases := []struct {
		cond string
		want bool
	}{
		{"s LIKE 'swan%'", true},
		{"s LIKE '%goose'", true},
		{"s LIKE '%an go%'", true},
		{"s LIKE 'swan_goose'", true},
		{"s LIKE 'swan'", false},
		{"s LIKE '_wan goose'", true},
		{"s LIKE '%%'", true},
		{"s LIKE ''", false},
	}
	for _, c := range cases {
		if got := evalCond(t, c.cond).Truthy(); got != c.want {
			t.Errorf("%q = %v, want %v", c.cond, got, c.want)
		}
	}
}

func TestExprInList(t *testing.T) {
	cases := []struct {
		cond string
		want string // "t", "f", or "null"
	}{
		{"a IN (5, 10, 15)", "t"},
		{"a IN (5, 11)", "f"},
		{"a NOT IN (5, 11)", "t"},
		{"a NOT IN (10)", "f"},
		{"a IN (10, NULL)", "t"},    // match wins over NULL
		{"a IN (11, NULL)", "null"}, // no match + NULL present
		{"NULL IN (1, 2)", "null"},  // NULL subject
		{"s IN ('swan goose', 'x')", "t"},
		{"a IN ('text', 10)", "t"}, // incomparable kinds skipped
	}
	for _, c := range cases {
		v := evalCond(t, c.cond)
		switch c.want {
		case "t":
			if !v.Truthy() {
				t.Errorf("%q = %v, want true", c.cond, v)
			}
		case "f":
			if v.Truthy() || v.IsNull() {
				t.Errorf("%q = %v, want false", c.cond, v)
			}
		case "null":
			if !v.IsNull() {
				t.Errorf("%q = %v, want NULL", c.cond, v)
			}
		}
	}
}

func TestExprBetween(t *testing.T) {
	for _, cond := range []string{
		"a BETWEEN 5 AND 15", "a BETWEEN 10 AND 10", "a NOT BETWEEN 11 AND 20",
		"b BETWEEN 2 AND 3", "s BETWEEN 'a' AND 'z'",
	} {
		if !evalCond(t, cond).Truthy() {
			t.Errorf("%q = false", cond)
		}
	}
	for _, cond := range []string{"a BETWEEN 11 AND 20", "a NOT BETWEEN 5 AND 15"} {
		if evalCond(t, cond).Truthy() {
			t.Errorf("%q = true", cond)
		}
	}
	if !evalCond(t, "a BETWEEN NULL AND 20").IsNull() {
		t.Error("BETWEEN with NULL bound not NULL")
	}
	// Incompatible types error.
	c := compileWhere(t, "a BETWEEN 'x' AND 'y'", exprSchema())
	if _, err := c.Eval(exprRow()); err == nil {
		t.Error("BETWEEN over incompatible types evaluated")
	}
}

func TestExprTypeErrors(t *testing.T) {
	schema := exprSchema()
	for _, cond := range []string{"s > 1", "NOT a", "s * 2 = 4", "f + 1 = 2", "a LIKE 'x'"} {
		c := compileWhere(t, cond, schema)
		if _, err := c.Eval(exprRow()); err == nil {
			t.Errorf("%q evaluated without error", cond)
		}
	}
}

func TestCompileUnknownColumn(t *testing.T) {
	stmt, _ := sql.Parse("SELECT x FROM t WHERE nope = 1")
	if _, err := Compile(stmt.(*sql.Select).Where, exprSchema()); err == nil {
		t.Error("unknown column compiled")
	}
}

func TestCompileAggregateRejected(t *testing.T) {
	stmt, _ := sql.Parse("SELECT x FROM t WHERE COUNT(*) > 1")
	if _, err := Compile(stmt.(*sql.Select).Where, exprSchema()); err == nil {
		t.Error("aggregate compiled in scalar context")
	}
}

func TestCompiledCols(t *testing.T) {
	c := compileWhere(t, "a > 1 AND b < 2 AND a <> 3", exprSchema())
	cols := c.Cols()
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 1 {
		t.Errorf("Cols = %v", cols)
	}
}

func TestSplitConjuncts(t *testing.T) {
	stmt, _ := sql.Parse("SELECT x FROM t WHERE a = 1 AND (b = 2 OR c = 3) AND d = 4")
	parts := SplitConjuncts(stmt.(*sql.Select).Where)
	if len(parts) != 3 {
		t.Fatalf("conjuncts = %d", len(parts))
	}
	if !strings.Contains(parts[1].String(), "OR") {
		t.Errorf("middle conjunct = %s", parts[1])
	}
	if got := SplitConjuncts(nil); got != nil {
		t.Errorf("SplitConjuncts(nil) = %v", got)
	}
}

func TestColumnLabel(t *testing.T) {
	stmt, _ := sql.Parse("SELECT t.a, b AS beta, a + 1 FROM t")
	items := stmt.(*sql.Select).Items
	if tb, n := ColumnLabel(items[0]); tb != "t" || n != "a" {
		t.Errorf("label 0 = %q.%q", tb, n)
	}
	if _, n := ColumnLabel(items[1]); n != "beta" {
		t.Errorf("label 1 = %q", n)
	}
	if _, n := ColumnLabel(items[2]); n != "(a + 1)" {
		t.Errorf("label 2 = %q", n)
	}
}
