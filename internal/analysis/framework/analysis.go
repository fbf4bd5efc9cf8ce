// Package framework is a self-contained, dependency-free skeleton of the
// golang.org/x/tools/go/analysis model: an Analyzer inspects one
// type-checked package (a Pass) and reports position-tagged Diagnostics.
//
// The build environment intentionally carries no third-party modules, so
// rather than importing x/tools this package reimplements the small slice of
// it the gentlint suite needs — the Analyzer/Pass/Diagnostic contract here
// (analysis.go), a `go list -export`-backed package loader (load.go) and a
// runner that applies //lint:allow suppression (run.go). The module-wide
// driver is a test (internal/analysis/clean_test.go). Analyzers written
// against it look like ordinary x/tools analyzers and could be ported to the
// real framework by swapping imports.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Analyzer describes one static check. Name is the identifier used in
// diagnostics and in //lint:allow directives; Doc is the one-paragraph
// human description of the invariant it checks.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Package is one loaded, type-checked package: the go/ast syntax alongside
// the go/types results, plus the `go list` metadata analyzers scope on.
type Package struct {
	// ImportPath is the package's import path. Test-augmented variants keep
	// their bracketed form (e.g. "gent/internal/lake [gent/internal/lake.test]").
	ImportPath string
	// PkgPath is ImportPath with any test-variant bracket suffix removed —
	// the path as written in import statements.
	PkgPath string
	// ForTest is the import path of the package this variant was compiled
	// for, when it is a test variant ("" otherwise).
	ForTest string
	// Dir is the package's source directory.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds any type-checking failures. Analyzers still run over
	// partially-checked syntax, but drivers should surface these: a
	// diagnostic over broken code is unreliable.
	TypeErrors []error
}

// IsMain reports whether this is a main package (commands, examples).
func (p *Package) IsMain() bool { return p.Types != nil && p.Types.Name() == "main" }

// IsExample reports whether the package lives under the module's examples/
// tree (runnable documentation, exempt from several server-side invariants).
func (p *Package) IsExample() bool {
	return strings.Contains(p.PkgPath, "/examples/") || strings.HasSuffix(p.PkgPath, "/examples")
}

// Diagnostic is one finding: the analyzer that produced it, where, and why.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed marks findings covered by a //lint:allow directive; the
	// runner keeps them (tests check the suppression path) but callers do
	// not fail on them.
	Suppressed bool
}

// Pass carries one analyzer's view of one package, plus the report sink.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. Analyzers that
// police library-code invariants use this to exempt tests.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Pkg.Fset.File(pos)
	return f != nil && strings.HasSuffix(filepath.Base(f.Name()), "_test.go")
}

// TypeOf returns the static type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// CalleeFunc resolves the *types.Func a call expression invokes (through a
// plain identifier or a selector), or nil for indirect calls, conversions
// and builtins.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// NamedReceiver returns the named type a method is declared on (resolving
// through a pointer receiver), or nil for plain functions.
func NamedReceiver(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// IsMethodOn reports whether fn is a method named name on the named type
// pkgPath.typeName (pointer or value receiver).
func IsMethodOn(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	named := NamedReceiver(fn)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
