package sql

import (
	"strings"
	"testing"

	"insightnotes/internal/types"
)

// FuzzParsePlaceholders drives the $n placeholder path end to end: any
// input that parses must yield a template whose placeholder set validates
// (NumParams), binds cleanly with the right number of arguments, and
// renders to text that re-parses with zero remaining placeholders — the
// invariant EXECUTE relies on when it hands bound.String() to the zoom-in
// re-execution path.
func FuzzParsePlaceholders(f *testing.F) {
	// Pinned corpus: every placeholder position the grammar admits, plus
	// the malformed shapes that must fail fast instead of panicking.
	for _, seed := range []string{
		"SELECT a FROM t WHERE a = $1",
		"SELECT a, b FROM t WHERE a = $1 AND b < $2 ORDER BY a",
		"SELECT a FROM t WHERE a IN ($1, $2, $3)",
		"SELECT a FROM t WHERE a BETWEEN $1 AND $2",
		"SELECT a FROM t WHERE a = $1 OR a = $1",
		"SELECT $1 FROM t",
		"SELECT a FROM t JOIN u ON t.a = u.b WHERE t.a = $1",
		"SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > $1",
		"INSERT INTO t VALUES ($1, $2)",
		"BULK INSERT INTO t VALUES ($1, $2), ($3, $4)",
		"UPDATE t SET a = $1 WHERE b = $2",
		"DELETE FROM t WHERE a = $1",
		"PREPARE p AS SELECT a FROM t WHERE a = $1",
		"EXECUTE p USING 1, 'x'",
		"EXECUTE p (1)",
		"DEALLOCATE p",
		"SELECT a FROM t WHERE a = $2",  // gap: $2 without $1
		"SELECT a FROM t WHERE a = $0",  // out of range
		"SELECT a FROM t WHERE a = $",   // bare dollar
		"SELECT a FROM t WHERE a = $1x", // trailing junk
		"EXECUTE",                       // truncated
		"PREPARE p AS",                  // truncated template
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are the bug
		}
		n, err := NumParams(stmt)
		if err != nil {
			return // non-contiguous placeholder set, correctly refused
		}
		args := make([]types.Value, n)
		for i := range args {
			args[i] = types.NewInt(int64(i + 1))
		}
		bound, err := BindParams(stmt, args)
		if err != nil {
			t.Fatalf("BindParams(%q, %d args) after NumParams ok: %v", input, n, err)
		}
		if m, err := NumParams(bound); err != nil || m != 0 {
			t.Fatalf("bound statement for %q still has %d placeholder(s) (err %v)", input, m, err)
		}
		// The template must be untouched by binding.
		if m, _ := NumParams(stmt); m != n {
			t.Fatalf("binding mutated template of %q: NumParams %d -> %d", input, n, m)
		}
		// Bound rendering must round-trip through the parser — this is the
		// invariant the engine's zoom-in re-execution leans on. It only
		// holds for statements with a faithful String(): Insert
		// deliberately elides its row list in renderings
		// (trace labels must stay bounded), and Prepare's Text field
		// captures source offsets.
		switch bound.(type) {
		case *Prepare, *Insert:
			return
		}
		if n == 0 {
			return
		}
		text := bound.String()
		re, err := Parse(text)
		if err != nil {
			t.Fatalf("bound rendering %q of %q does not re-parse: %v", text, input, err)
		}
		if m, err := NumParams(re); err != nil || m != 0 {
			t.Fatalf("re-parsed bound text %q has %d placeholder(s)", text, m)
		}
	})
}

// TestBindParamsSharesLeaves pins the binder's cloning contract: interior
// expression spines are copied (never mutated in place), placeholder-free
// leaf nodes are shared with the immutable template, and Param leaves are
// replaced by fresh Literals.
func TestBindParamsSharesLeaves(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE a = $1 AND b = 'fixed'")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*Select)
	bound, err := BindParams(stmt, []types.Value{types.NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	bsel := bound.(*Select)
	if bsel == sel {
		t.Fatal("binding returned the template itself")
	}
	top := sel.Where.(*BinaryExpr)
	btop := bsel.Where.(*BinaryExpr)
	if top == btop {
		t.Fatal("binding shared the WHERE spine, want a clone")
	}
	right, bright := top.R.(*BinaryExpr), btop.R.(*BinaryExpr)
	if right.L != bright.L || right.R != bright.R {
		t.Error("placeholder-free leaves were cloned, want shared with the template")
	}
	left, bleft := top.L.(*BinaryExpr), btop.L.(*BinaryExpr)
	if _, stillParam := bleft.R.(*Param); stillParam {
		t.Fatal("placeholder survived binding")
	}
	if _, wasParam := left.R.(*Param); !wasParam {
		t.Fatal("template placeholder was mutated by binding")
	}
	if !strings.Contains(bound.String(), "= 7") {
		t.Errorf("bound rendering %q does not inline the argument", bound.String())
	}
}
