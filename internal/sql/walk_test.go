package sql

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The traversal tests build each node and statement type by reflection,
// with a distinct ColRef in every Expr or []Expr field, and ask whether
// Walk and Rewrite reach every one of them. A field the pair does not
// name fails here, whatever its type adds next.

var exprNodes = []Expr{
	&Literal{}, &Param{}, &ColRef{}, &BinaryExpr{}, &UnaryExpr{}, &IsNullExpr{},
	&FuncCall{}, &SummaryCall{}, &InExpr{}, &BetweenExpr{},
}

var statements = []Statement{
	&Select{}, &Explain{}, &ZoomIn{}, &CreateTable{}, &CreateIndex{}, &DropTable{},
	&Insert{}, &Update{}, &Delete{}, &AddAnnotation{}, &DropAnnotation{},
	&CreateSummaryInstance{}, &DropSummaryInstance{}, &TrainSummary{},
	&LinkSummary{}, &Checkpoint{}, &CheckTable{}, &Prepare{}, &Execute{},
	&Deallocate{}, &Show{},
}

var exprType = reflect.TypeFor[Expr]()

// fill sets every settable Expr field reachable from v to a fresh ColRef
// named by next, giving each slice two elements and each nil pointer to a
// struct a new value. Other interfaces (a PREPARE's template) stay nil.
func fill(v reflect.Value, next func() Expr) {
	switch {
	case !v.CanSet():
	case v.Type() == exprType:
		v.Set(reflect.ValueOf(next()))
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), next)
		}
	case v.Kind() == reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fill(s.Index(i), next)
		}
		v.Set(s)
	case v.Kind() == reflect.Pointer && v.Type().Elem().Kind() == reflect.Struct:
		p := reflect.New(v.Type().Elem())
		fill(p.Elem(), next)
		v.Set(p)
	}
}

// build returns a filled copy of proto: a new value of its type.
func build[T any](proto T) T {
	n := 0
	p := reflect.New(reflect.TypeOf(proto).Elem())
	fill(p.Elem(), func() Expr {
		n++
		return &ColRef{Name: "c" + strconv.Itoa(n)}
	})
	return p.Interface().(T)
}

// colRefs lists, by reflection alone, the names of the ColRefs held in
// v's fields — the oracle the traversal is checked against.
func colRefs(v reflect.Value) []string {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			return nil
		}
		if c, ok := v.Interface().(*ColRef); ok {
			return []string{c.Name}
		}
		return colRefs(v.Elem())
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				out = append(out, colRefs(v.Field(i))...)
			}
		}
		return out
	case reflect.Slice:
		var out []string
		for i := 0; i < v.Len(); i++ {
			out = append(out, colRefs(v.Index(i))...)
		}
		return out
	}
	return nil
}

// refs is colRefs over x, a node or a statement.
func refs[T any](x T) []string {
	return colRefs(reflect.ValueOf(&x).Elem())
}

func walked(e Expr) []string {
	var out []string
	Walk(e, func(e Expr) bool {
		if c, ok := e.(*ColRef); ok {
			out = append(out, c.Name)
		}
		return true
	})
	return out
}

func identity(Expr) (Expr, bool, error) { return nil, false, nil }

func rename(e Expr) (Expr, bool, error) {
	if c, ok := e.(*ColRef); ok {
		return &ColRef{Name: c.Name + "_r"}, true, nil
	}
	return nil, false, nil
}

func renamed(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = n + "_r"
	}
	return out
}

func TestWalkAndRewriteReachEveryExpressionField(t *testing.T) {
	for _, proto := range exprNodes {
		e := build(proto)
		want := refs(e)
		name := reflect.TypeOf(e).Elem().Name()
		if got := walked(e); !slices.Equal(got, want) {
			t.Errorf("%s: Walk visits %v, its fields hold %v", name, got, want)
		}
		if out, err := Rewrite(e, identity); err != nil || out.String() != e.String() {
			t.Errorf("%s: identity Rewrite renders %v (%v), want %s", name, out, err, e)
		}
		out, err := Rewrite(e, rename)
		if err != nil {
			t.Fatal(err)
		}
		if got := refs(out); !slices.Equal(got, renamed(want)) {
			t.Errorf("%s: Rewrite reaches %v, want %v", name, got, renamed(want))
		}
		if got := refs(e); !slices.Equal(got, want) {
			t.Errorf("%s: Rewrite mutated its input to %v", name, got)
		}
	}
}

func TestExprSlotsReachEveryStatementField(t *testing.T) {
	for _, proto := range statements {
		s := build(proto)
		want := refs(s)
		name := reflect.TypeOf(s).Elem().Name()
		var got []string
		exprSlots(s, false, func(slot *Expr) { got = append(got, walked(*slot)...) })
		if !slices.Equal(got, want) {
			t.Errorf("%s: exprSlots visits %v, its fields hold %v", name, got, want)
		}
		out := exprSlots(s, true, func(slot *Expr) { *slot, _ = Rewrite(*slot, rename) })
		if got := refs(out); !slices.Equal(got, renamed(want)) {
			t.Errorf("%s: cloned slots reach %v, want %v", name, got, renamed(want))
		}
		if got := refs(s); !slices.Equal(got, want) {
			t.Errorf("%s: rewriting cloned slots mutated the statement to %v", name, got)
		}
	}
}

// TestTraversalTablesNameEveryType keeps the two lists above complete:
// every type in the package with an exprNode method is an expression
// node, every one with a Class method a statement.
func TestTraversalTablesNameEveryType(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string][]string{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
				declared[fn.Name.Name] = append(declared[fn.Name.Name], star.X.(*ast.Ident).Name)
			}
		}
	}
	for method, listed := range map[string][]string{"exprNode": typeNames(exprNodes), "Class": typeNames(statements)} {
		got := declared[method]
		slices.Sort(got)
		slices.Sort(listed)
		if !slices.Equal(got, listed) {
			t.Errorf("types with a %s method: %v; the test lists %v", method, got, listed)
		}
	}
}

func typeNames[T any](vals []T) []string {
	var out []string
	for _, v := range vals {
		out = append(out, reflect.TypeOf(v).Elem().Name())
	}
	return out
}

func TestWalkIsPreOrderAndSkips(t *testing.T) {
	e := mustParse(t, "SELECT a FROM t WHERE a + COUNT(b) * c").(*Select).Where
	var seen []string
	Walk(e, func(e Expr) bool {
		seen = append(seen, e.String())
		_, call := e.(*FuncCall)
		return !call
	})
	want := []string{"(a + (COUNT(b) * c))", "a", "(COUNT(b) * c)", "COUNT(b)", "c"}
	if !slices.Equal(seen, want) {
		t.Errorf("Walk visits %q, want %q", seen, want)
	}
}
