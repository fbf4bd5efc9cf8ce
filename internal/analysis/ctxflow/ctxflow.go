// Package ctxflow enforces the context-first calling discipline.
//
// Every pipeline entry point takes a ctx (the root gent package keeps one
// plain convenience, Reclaim). What erodes the discipline is library code
// manufacturing its own root context: a context.Background() (or worse,
// context.TODO()) deep in a call chain detaches the work from the caller's
// cancellation and deadline. Roots belong in main packages, examples and
// tests. The two sanctioned library uses are the compat shim — a function
// with no ctx parameter passing Background directly into a context-first
// call — and nil-ctx defaulting (`ctx = context.Background()` on an
// existing context variable).
//
// context.TODO never belongs in library code: it is a marker for unmigrated
// call sites, and the migration happened in PR 3.
package ctxflow

import (
	"go/ast"
	"go/types"

	"gent/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "ctxflow",
	Doc: "flags context.Background()/TODO() outside main/examples/tests (except compat-shim delegation " +
		"and nil-ctx defaulting)",
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
			checkRoots(pass, fd)
		}
	}
	return nil
}

// checkRoots flags context.Background/TODO calls inside fd, allowing the
// two sanctioned shapes.
func checkRoots(pass *framework.Pass, fd *ast.FuncDecl) {
	hasCtxParam := funcHasCtxParam(pass, fd)
	// parents tracks the enclosing-node stack so a call can look one level up.
	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pass.CalleeFunc(call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		switch fn.Name() {
		case "TODO":
			pass.Reportf(call.Pos(), "context.TODO in library code; thread the caller's ctx (or use the ...Context form)")
		case "Background":
			if allowedBackground(pass, call, stack, hasCtxParam) {
				return true
			}
			if hasCtxParam {
				pass.Reportf(call.Pos(), "context.Background discards this function's ctx parameter; thread it instead")
			} else {
				pass.Reportf(call.Pos(), "context.Background in library code; accept a ctx (or pass it straight into a context-first call as a compat shim)")
			}
		}
		return true
	})
}

// allowedBackground recognizes the sanctioned Background shapes given the
// enclosing-node stack (stack[len-1] is the call itself).
func allowedBackground(pass *framework.Pass, call *ast.CallExpr, stack []ast.Node, hasCtxParam bool) bool {
	if len(stack) < 2 {
		return false
	}
	switch parent := stack[len(stack)-2].(type) {
	case *ast.AssignStmt:
		// Nil-ctx defaulting: `ctx = context.Background()` onto an existing
		// context variable (plain assignment, not a fresh :=).
		if parent.Tok.String() == "=" {
			for i, rhs := range parent.Rhs {
				if rhs == ast.Expr(call) && i < len(parent.Lhs) {
					if t := pass.TypeOf(parent.Lhs[i]); t != nil && framework.IsContextType(t) {
						return true
					}
				}
			}
		}
	case *ast.CallExpr:
		// Compat shim: a no-ctx function feeding Background directly into a
		// context-first call.
		if hasCtxParam {
			return false
		}
		sig, ok := pass.TypeOf(parent.Fun).(*types.Signature)
		if !ok {
			return false
		}
		for i, arg := range parent.Args {
			if arg != ast.Expr(call) {
				continue
			}
			if i < sig.Params().Len() && framework.IsContextType(sig.Params().At(i).Type()) {
				return true
			}
		}
	}
	return false
}

func funcHasCtxParam(pass *framework.Pass, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		if t := pass.TypeOf(field.Type); t != nil && framework.IsContextType(t) {
			return true
		}
	}
	return false
}
