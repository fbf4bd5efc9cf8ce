// Package nakedgo bans unaccounted-for goroutines in library code.
//
// PR 2's fan-out bug — nested worker pools each sizing themselves at
// GOMAXPROCS, spawning GOMAXPROCS² goroutines — got through review because
// nothing distinguishes a pooled `go` from a naked one at a glance. The
// engine's rule: every goroutine a library function spawns must be tied to a
// teardown the spawner controls. The analyzer accepts a `go func(){...}()`
// whose body shows one of the accepted lifecycle signals:
//
//   - it calls (*sync.WaitGroup).Done or Wait — a joined pool member or the
//     goroutine that closes a results channel after the pool drains;
//   - it selects on a context's Done channel — ctx-aware teardown;
//   - it closes a channel declared by an enclosing function — a completion
//     signal the spawner (or its caller) waits on;
//   - it sends on an enclosing function's channel that the enclosing
//     function also receives from — a joined single-shot worker.
//
// Everything else — including `go f(x)` spawning a named function, whose
// body the analyzer does not chase — is flagged. A deliberate detached
// goroutine carries //lint:allow nakedgo with the reason. Main packages,
// examples and _test.go files are exempt: commands own their process
// lifetime, and test goroutines are bounded by the test.
//
// A loop over independent work items does not write its own pool: it calls
// par.For (internal/par), which bounds the goroutines at the width the
// caller passes and joins them before returning.
package nakedgo

import (
	"go/ast"
	"go/types"

	"gent/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "nakedgo",
	Doc: "flags go statements in library code not visibly tied to a WaitGroup, context teardown, " +
		"or a channel the spawner drains — unbounded fan-out is how PR 2's GOMAXPROCS² bug happened",
	Run: run,
}

func run(pass *framework.Pass) error {
	if pass.Pkg.IsMain() || pass.Pkg.IsExample() {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if !tied(pass, g, fd.Body) {
					pass.Reportf(g.Pos(),
						"goroutine is not visibly tied to a WaitGroup, ctx.Done, or a channel the spawner drains; bound it or annotate the teardown")
				}
				return true
			})
		}
	}
	return nil
}

// tied reports whether the go statement shows an accepted lifecycle signal.
func tied(pass *framework.Pass, g *ast.GoStmt, enclosing *ast.BlockStmt) bool {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return false // named function: body not visible here, annotate if detached
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := pass.CalleeFunc(n); fn != nil {
				if framework.IsMethodOn(fn, "sync", "WaitGroup", "Done") ||
					framework.IsMethodOn(fn, "sync", "WaitGroup", "Wait") ||
					isContextDone(fn) {
					found = true
					return false
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if obj := usedObject(pass, n.Args[0]); obj != nil && declaredOutside(obj, lit) {
					found = true
					return false
				}
			}
		case *ast.SendStmt:
			if obj := usedObject(pass, n.Chan); obj != nil && declaredOutside(obj, lit) &&
				enclosingReceivesFrom(pass, enclosing, g, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isContextDone(fn *types.Func) bool {
	if fn.Name() != "Done" {
		return false
	}
	named := framework.NamedReceiver(fn)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// usedObject resolves an expression to the variable it names, or nil.
func usedObject(pass *framework.Pass, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return pass.Pkg.Info.Uses[id]
	}
	return nil
}

// declaredOutside reports whether obj's declaration lies outside the
// function literal — i.e. the goroutine touches state its spawner owns.
func declaredOutside(obj types.Object, lit *ast.FuncLit) bool {
	return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
}

// enclosingReceivesFrom reports whether the enclosing body, outside the go
// statement itself, receives from or ranges over obj's channel — the join
// that makes a single-shot sender bounded.
func enclosingReceivesFrom(pass *framework.Pass, body *ast.BlockStmt, g *ast.GoStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if n.Pos() >= g.Pos() && n.End() <= g.End() {
			return false // inside the go statement
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && usedObject(pass, n.X) == obj {
				found = true
			}
		case *ast.RangeStmt:
			if usedObject(pass, n.X) == obj {
				found = true
			}
		}
		return true
	})
	return found
}
