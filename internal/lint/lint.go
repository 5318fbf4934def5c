// Package lint holds the repository's lints, written over go/ast so they
// run as ordinary tests under `go test ./...`. Three vocabularies are each
// declared once — metric names in internal/metrics/names.go, failpoint
// names in internal/failpoint/names.go, lifecycle span names in
// internal/trace/names.go — and the naming lints keep the rest of the tree
// from growing names those files do not list, and Unreferenced from
// keeping names nothing uses. CallsOutside keeps a call
// confined to the functions allowed to make it; the engine's lock protocol
// is held to one function that way. Imports keeps a package out of the
// files that must not use it (no JSON on the durable write path).
// LeakyOpens reads the tests and examples themselves (neither may leave the
// zoom-in cache directory Open creates behind), StaleMakeTargets reads
// the documentation against the Makefile, and StaleDaemonFlags reads it
// against the daemon's flag declarations, which UndocumentedDaemonFlags
// holds to the daemon's usage block.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// Sources is a set of parsed Go files, keyed for reporting by the path
// each was parsed under.
type Sources struct {
	fset  *token.FileSet
	files []*ast.File
}

// Parse adds one file to the set. src follows parser.ParseFile: nil reads
// path from disk, a string is parsed as the file's content.
func (s *Sources) Parse(path string, src any) error {
	if s.fset == nil {
		s.fset = token.NewFileSet()
	}
	f, err := parser.ParseFile(s.fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	s.files = append(s.files, f)
	return nil
}

// ParseTree adds every non-test Go file under the given directories.
func (s *Sources) ParseTree(dirs ...string) error { return s.parseTree(false, dirs) }

// ParseTests adds every _test.go file under the given directories.
func (s *Sources) ParseTests(dirs ...string) error { return s.parseTree(true, dirs) }

func (s *Sources) parseTree(tests bool, dirs []string) error {
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
				return err
			}
			return s.Parse(path, nil)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// path is the path f was parsed under, slash-separated.
func (s *Sources) path(f *ast.File) string {
	return filepath.ToSlash(s.fset.Position(f.Pos()).Filename)
}

// stringLits calls fn for every string literal in f with its value.
func (s *Sources) stringLits(f *ast.File, fn func(lit *ast.BasicLit, val string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if val, err := strconv.Unquote(lit.Value); err == nil {
				fn(lit, val)
			}
		}
		return true
	})
}

// Declared returns the string literals of the one file whose path ends in
// catalog — the names a names.go declares.
func (s *Sources) Declared(catalog string) []string {
	var names []string
	for _, f := range s.files {
		if strings.HasSuffix(s.path(f), catalog) {
			s.stringLits(f, func(_ *ast.BasicLit, val string) { names = append(names, val) })
		}
	}
	return names
}

// Undeclared reports every string literal outside the catalog file that
// matches shape in full and is not among the catalog's declarations: a
// name in use that its vocabulary file does not list.
func (s *Sources) Undeclared(shape *regexp.Regexp, catalog string) []string {
	declared := map[string]bool{}
	for _, name := range s.Declared(catalog) {
		declared[name] = true
	}
	var problems []string
	for _, f := range s.files {
		if strings.HasSuffix(s.path(f), catalog) {
			continue
		}
		s.stringLits(f, func(lit *ast.BasicLit, val string) {
			if shape.MatchString(val) && !declared[val] {
				problems = append(problems, fmt.Sprintf("%s: %q is not declared in %s",
					s.fset.Position(lit.Pos()), val, catalog))
			}
		})
	}
	return problems
}

// Malformed reports the catalog's declarations that do not match scheme.
func (s *Sources) Malformed(scheme *regexp.Regexp, catalog string) []string {
	var problems []string
	for _, name := range s.Declared(catalog) {
		if !scheme.MatchString(name) {
			problems = append(problems, fmt.Sprintf("%s: declared name %q violates %s", catalog, name, scheme))
		}
	}
	return problems
}

// Unreferenced reports the constants the catalog file declares whose
// names begin with prefix and that no other file refers to: a declared
// name that nothing registers or reads. The compiler does not flag an
// unused exported constant.
func (s *Sources) Unreferenced(catalog, prefix string) []string {
	used := map[string]bool{}
	var declared []*ast.Ident
	for _, f := range s.files {
		if !strings.HasSuffix(s.path(f), catalog) {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					used[id.Name] = true
				}
				return true
			})
			continue
		}
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, spec := range gd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if strings.HasPrefix(id.Name, prefix) {
							declared = append(declared, id)
						}
					}
				}
			}
		}
	}
	var problems []string
	for _, id := range declared {
		if !used[id.Name] {
			problems = append(problems, fmt.Sprintf("%s: %s is declared but never referenced", s.fset.Position(id.Pos()), id.Name))
		}
	}
	return problems
}

// InlineCallNames reports calls x.M("literal", ...) for M in methods in
// files whose path does not contain exempt: call sites that spell a name
// inline where a declared constant is required.
func (s *Sources) InlineCallNames(methods []string, exempt string) []string {
	var problems []string
	for _, f := range s.files {
		if strings.Contains(s.path(f), exempt) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			lit, isLit := call.Args[0].(*ast.BasicLit)
			if !ok || !isLit || lit.Kind != token.STRING {
				return true
			}
			for _, m := range methods {
				if sel.Sel.Name == m {
					problems = append(problems, fmt.Sprintf("%s: %s(%s) spells a name inline; use a declared constant",
						s.fset.Position(call.Pos()), m, lit.Value))
				}
			}
			return true
		})
	}
	return problems
}

// CallsOutside reports calls whose dotted selector chain is call or ends in
// it ("stmtMu.Lock" matches db.stmtMu.Lock(), "os.Remove" matches
// os.Remove()) made in files under dir from any function not named in
// allowed. A call inside a function literal
// belongs to the declared function around it.
func (s *Sources) CallsOutside(dir, call string, allowed ...string) []string {
	var problems []string
	for _, f := range s.files {
		if !strings.Contains(s.path(f), dir) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			permitted := false
			for _, a := range allowed {
				permitted = permitted || fd.Name.Name == a
			}
			if permitted {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok && strings.HasSuffix("."+selectorChain(c.Fun), "."+call) {
					problems = append(problems, fmt.Sprintf("%s: %s calls %s; only %s may",
						s.fset.Position(c.Pos()), fd.Name.Name, call, strings.Join(allowed, ", ")))
				}
				return true
			})
		}
	}
	return problems
}

// Imports reports every file whose path contains one of paths and that
// imports pkg.
func (s *Sources) Imports(pkg string, paths ...string) []string {
	var problems []string
	for _, f := range s.files {
		p := s.path(f)
		covered := false
		for _, want := range paths {
			covered = covered || strings.Contains(p, want)
		}
		if !covered {
			continue
		}
		for _, imp := range f.Imports {
			if v, err := strconv.Unquote(imp.Path.Value); err == nil && v == pkg {
				problems = append(problems, fmt.Sprintf("%s: imports %s", s.fset.Position(imp.Pos()), pkg))
			}
		}
	}
	return problems
}

// selectorChain renders a.b.c for a chain of selectors over an identifier,
// and "" for any other expression.
func selectorChain(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if head := selectorChain(x.X); head != "" {
			return head + "." + x.Sel.Name
		}
	}
	return ""
}

// engineOpeners maps the functions that open an engine.DB to the position
// of their Config argument.
var engineOpeners = map[string]int{"Open": 0, "MustOpen": 0, "OpenDurable": 0, "Load": 1, "LoadFile": 1}

// LeakyOpens reports the functions that open an engine — engine.Open,
// MustOpen, OpenDurable, Load or LoadFile, through package engine, the root
// package, or unqualified inside package engine — and neither say where the
// zoom-in cache goes nor close what they opened. With Config.CacheDir empty
// Open creates a temporary directory that only DB.Close removes, so a test
// must do one of three things: name CacheDir (setting it from t.TempDir()),
// take the Config from a helper call that does, or call Close. A helper
// that hands its own Config parameter to an opener passes the obligation
// to its callers.
func (s *Sources) LeakyOpens() []string {
	helpers := map[string]int{} // pass-through helper → position of its Config parameter
	var problems []string
	// Twice: the first pass finds the pass-through helpers, the second
	// checks their callers whatever order the files came in.
	for pass := 0; pass < 2; pass++ {
		problems = nil
		for _, f := range s.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				params := map[string]int{}
				for _, field := range fd.Type.Params.List {
					for _, name := range field.Names {
						params[name.Name] = len(params)
					}
				}
				var opens []*ast.CallExpr
				safe, passes := false, -1
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.Ident:
						safe = safe || x.Name == "CacheDir"
					case *ast.CallExpr:
						pkg, name := "", selectorChain(x.Fun)
						if i := strings.LastIndex(name, "."); i >= 0 {
							pkg, name = name[:i], name[i+1:]
						}
						safe = safe || name == "Close"
						arg, opener := engineOpeners[name]
						if opener {
							opener = pkg == "engine" || pkg == "insightnotes" || pkg == "" && f.Name.Name == "engine"
						} else if pkg == "" {
							arg, opener = helpers[name]
						}
						if !opener || arg >= len(x.Args) {
							break
						}
						switch cfg := x.Args[arg].(type) {
						case *ast.CallExpr: // built by a helper, which is checked where it is declared
						case *ast.Ident:
							if i, isParam := params[cfg.Name]; isParam {
								passes = i
								break
							}
							opens = append(opens, x)
						default:
							opens = append(opens, x)
						}
					}
					return true
				})
				if safe {
					continue
				}
				if passes >= 0 {
					helpers[fd.Name.Name] = passes
				}
				for _, c := range opens {
					problems = append(problems, fmt.Sprintf("%s: %s opens an engine with no CacheDir and never closes it; use the package's t.Cleanup-closing helper",
						s.fset.Position(c.Pos()), fd.Name.Name))
				}
			}
		}
	}
	return problems
}

var (
	makeTarget  = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
	makeMention = regexp.MustCompile("`make ([^`]+)`")
)

// StaleMakeTargets reports each `make <target> ...` written in doc (a text
// reported under name) whose target makefile does not declare. Words with
// an '=' are variable assignments, not targets.
func StaleMakeTargets(makefile, name, doc string) []string {
	declared := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(makefile, -1) {
		declared[m[1]] = true
	}
	var problems []string
	for _, m := range makeMention.FindAllStringSubmatch(doc, -1) {
		for _, word := range strings.Fields(m[1]) {
			if !strings.Contains(word, "=") && !declared[word] {
				problems = append(problems, fmt.Sprintf("%s: `make %s` names no Makefile target", name, word))
			}
		}
	}
	return problems
}

var (
	docContinuation = regexp.MustCompile(`\\[ \t]*\n`)
	docFlag         = regexp.MustCompile(`^\[?--?([A-Za-z][A-Za-z0-9_-]*)`)
)

// StaleDaemonFlags reports each -flag written in doc (a text reported
// under name) on a command line that runs insightnotesd, lines continued
// with a trailing backslash included, that mainSrc — the daemon's main.go
// — does not declare with a flag.<Kind>("name", ...) call. A command line
// ends at a shell separator, a closing parenthesis or the backtick that
// closes inline code.
func StaleDaemonFlags(mainSrc, name, doc string) []string {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", mainSrc, parser.SkipObjectResolution)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", name, err)}
	}
	declared := map[string]bool{"h": true, "help": true} // the flag package's own
	for _, flag := range declaredFlags(f) {
		declared[flag] = true
	}
	const terminators = "`|&;)>"
	var problems []string
	for _, line := range strings.Split(docContinuation.ReplaceAllString(doc, " "), "\n") {
		words := strings.Fields(line)
		for i, word := range words {
			cmd := strings.TrimLeft(word, "`(")
			if filepath.Base(strings.TrimRight(cmd, terminators)) != "insightnotesd" || strings.ContainsAny(cmd, terminators) {
				continue
			}
			for _, arg := range words[i+1:] {
				if m := docFlag.FindStringSubmatch(arg); m != nil && !declared[m[1]] {
					problems = append(problems, fmt.Sprintf("%s: `insightnotesd -%s` names no flag cmd/insightnotesd declares", name, m[1]))
				}
				if strings.ContainsAny(arg, terminators) {
					break
				}
			}
		}
	}
	return problems
}

// UndocumentedDaemonFlags reports each flag mainSrc — the daemon's main.go
// — declares that the Usage block of its package comment (the lines after
// "Usage:" up to the first blank line after them) does not show as -name.
func UndocumentedDaemonFlags(mainSrc string) []string {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", mainSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return []string{err.Error()}
	}
	_, usage, _ := strings.Cut(f.Doc.Text(), "Usage:")
	usage, _, _ = strings.Cut(strings.TrimLeft(usage, "\n"), "\n\n")
	shown := map[string]bool{}
	for _, word := range strings.Fields(usage) {
		if m := docFlag.FindStringSubmatch(word); m != nil {
			shown[m[1]] = true
		}
	}
	var problems []string
	for _, flag := range declaredFlags(f) {
		if !shown[flag] {
			problems = append(problems, fmt.Sprintf("flag -%s is missing from the Usage block of the insightnotesd package comment", flag))
		}
	}
	return problems
}

// declaredFlags returns the names f declares with flag.<Kind>("name", ...)
// calls, in source order.
func declaredFlags(f *ast.File) []string {
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && strings.HasPrefix(selectorChain(call.Fun), "flag.") {
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					v, _ := strconv.Unquote(lit.Value)
					names = append(names, v)
					break
				}
			}
		}
		return true
	})
	return names
}
