package sql

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// FuzzStatementFixpoint checks the renderers against the parser: any input
// that parses renders to text that parses back to the same rendering, and
// an identity Rewrite over every expression slot renders the same text.
// INSERT and TRAIN SUMMARY render a row or sample count in place of their
// lists (trace labels stay bounded), so only the Rewrite half applies to
// them. The corpus is every string literal in parser_test.go.
func FuzzStatementFixpoint(f *testing.F) {
	file, err := parser.ParseFile(token.NewFileSet(), "parser_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				f.Add(s)
			}
		}
		return true
	})
	f.Fuzz(func(t *testing.T, input string) {
		s, err := Parse(input)
		if err != nil {
			return
		}
		text := s.String()
		same := exprSlots(s, true, func(slot *Expr) { *slot, _ = Rewrite(*slot, identity) })
		if got := same.String(); got != text {
			t.Fatalf("%q: identity Rewrite renders %q, the statement %q", input, got, text)
		}
		inner := s
		if p, ok := s.(*Prepare); ok {
			inner = p.Stmt
		}
		switch inner.(type) {
		case *Insert, *TrainSummary:
			return
		}
		re, err := Parse(text)
		if err != nil {
			t.Fatalf("%q renders %q, which does not parse: %v", input, text, err)
		}
		if got := re.String(); got != text {
			t.Fatalf("%q renders %q, which renders %q", input, text, got)
		}
	})
}
