// Package analysis is a self-contained, stdlib-only miniature of
// golang.org/x/tools/go/analysis — just enough framework to bundle the
// repo's invariant analyzers (tools/vet-hmc/analyzers/...) behind one
// driver. The module deliberately has zero dependencies, so the upstream
// framework is mirrored rather than imported: an Analyzer owns a name, a
// doc string, an import-path filter and a Run function over a fully
// type-checked Pass. Type information comes from the gc export data that
// `go list -export` produces (see load.go), which keeps analysis exact
// without shipping a second type checker.
//
// The analyzers encode *project* invariants, not general Go hygiene:
// determinism of counter-affecting packages, checkpoint options-signature
// coverage, metrics registration discipline, lock-vs-blocking-call
// ordering, and the panic→error recover boundary. Each is documented in its own package
// and in DESIGN.md row 21.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Analyzer is one invariant checker. Match, when non-nil, restricts the
// analyzer to packages whose import path it accepts; the driver still
// loads only matched packages, so an analyzer may assume its Run is
// invoked on relevant code only.
type Analyzer struct {
	// Name is the short stable identifier used in diagnostics ("determinism").
	Name string
	// Doc is the one-paragraph description shown by `vet-hmc -list`.
	Doc string
	// Match reports whether the analyzer applies to the import path.
	// nil means every package.
	Match func(importPath string) bool
	// Run inspects one package and reports findings through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package into an Analyzer.Run.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	ImportPath string
	Pkg        *types.Package
	TypesInfo  *types.Info

	annots map[string][]Annotation // file name -> annotations, lazily built
	report func(Diagnostic)
}

// Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Annotation is one //hmc:kind(reason) marker comment. Annotations are
// the escape hatch for *legitimate* invariant exceptions — progress
// timing, pool jitter, order-invariant map folds — and the reason is
// mandatory: an empty one is itself reported by Allowed.
type Annotation struct {
	Kind   string // "nondet", "lockhold", "transient", "identity", ...
	Reason string
	Line   int
}

// annotRE matches the marker syntax. The comment may trail code on the
// same line or sit on the line directly above the flagged construct:
//
//	now := time.Now() //hmc:nondet(progress timestamps never feed counters)
var annotRE = regexp.MustCompile(`//hmc:([a-z]+)\(([^)]*)\)`)

// Annotations returns the //hmc: markers of the file containing pos,
// indexed lazily per file.
func (p *Pass) Annotations(pos token.Pos) []Annotation {
	file := p.Fset.Position(pos).Filename
	if p.annots == nil {
		p.annots = make(map[string][]Annotation)
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			var as []Annotation
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range annotRE.FindAllStringSubmatch(c.Text, -1) {
						as = append(as, Annotation{
							Kind:   m[1],
							Reason: strings.TrimSpace(m[2]),
							Line:   p.Fset.Position(c.Pos()).Line,
						})
					}
				}
			}
			p.annots[name] = as
		}
	}
	return p.annots[file]
}

// Allowed reports whether pos carries an //hmc:kind(reason) annotation on
// its own line or the line immediately above. A marker with an empty
// reason does not allow anything — it is reported as its own finding, so
// suppressions stay self-documenting.
func (p *Pass) Allowed(kind string, pos token.Pos) bool {
	line := p.Fset.Position(pos).Line
	for _, a := range p.Annotations(pos) {
		if a.Kind != kind || (a.Line != line && a.Line != line-1) {
			continue
		}
		if a.Reason == "" {
			p.Reportf(pos, "hmc:%s annotation needs a non-empty reason", kind)
			return true // suppress the underlying finding; the empty reason is the finding
		}
		return true
	}
	return false
}

// HasSuffix returns a Match function accepting import paths with any of
// the given suffixes — the standard shape for package-scoped invariants
// ("internal/core" matches both the real package and a fixture package
// under analysistest's synthetic hmc/internal/core path).
func HasSuffix(suffixes ...string) func(string) bool {
	return func(path string) bool {
		for _, s := range suffixes {
			if path == s || strings.HasSuffix(path, "/"+s) {
				return true
			}
		}
		return false
	}
}

// Funcs iterates over every function declaration with a body.
func Funcs(files []*ast.File, fn func(*ast.FuncDecl)) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// CalleeObj resolves the called function/method object of a call
// expression, or nil (builtin, func-typed variable, type conversion).
func CalleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o, ok := info.Uses[fun].(*types.Func); ok {
			return o
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		if o, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return o
		}
	}
	return nil
}

// IsPkgFunc reports whether obj is the package-level function pkgPath.name.
func IsPkgFunc(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// NamedType returns the named type of t after stripping pointers, or nil.
func NamedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return nil
		}
	}
}

// IsNamed reports whether t (possibly behind pointers) is pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	n := NamedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}
