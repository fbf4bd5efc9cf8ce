package directive_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"gent/internal/analysis/directive"
)

func parse(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, []*ast.File{f}
}

func TestEndOfLineDirective(t *testing.T) {
	fset, files := parse(t, `package p

func f() {
	g() //lint:allow nakedgo fire-and-forget by design
}

func g() {}
`)
	m, bad := directive.Parse(fset, files)
	if len(bad) != 0 {
		t.Fatalf("unexpected bad directives: %v", bad)
	}
	if !m.Allows("nakedgo", "d.go", 4) {
		t.Errorf("directive on line 4 should allow nakedgo on its own line")
	}
	if m.Allows("ctxflow", "d.go", 4) {
		t.Errorf("directive should only allow the named analyzer")
	}
	if m.Allows("nakedgo", "d.go", 6) {
		t.Errorf("directive must not leak to unrelated lines")
	}
}

func TestStandaloneDirectiveCoversNextLine(t *testing.T) {
	fset, files := parse(t, `package p

//lint:allow snappin compat test
func f() {}
`)
	m, bad := directive.Parse(fset, files)
	if len(bad) != 0 {
		t.Fatalf("unexpected bad directives: %v", bad)
	}
	if !m.Allows("snappin", "d.go", 3) || !m.Allows("snappin", "d.go", 4) {
		t.Errorf("standalone directive should cover its line and the next")
	}
}

func TestMultiAnalyzerList(t *testing.T) {
	fset, files := parse(t, `package p

func f() {
	g() //lint:allow nakedgo,snappin reference path
}

func g() {}
`)
	m, bad := directive.Parse(fset, files)
	if len(bad) != 0 {
		t.Fatalf("unexpected bad directives: %v", bad)
	}
	for _, name := range []string{"nakedgo", "snappin"} {
		if !m.Allows(name, "d.go", 4) {
			t.Errorf("comma list should allow %s", name)
		}
	}
}

func TestMalformedDirectiveReported(t *testing.T) {
	fset, files := parse(t, `package p

//lint:allow
func f() {}
`)
	_, bad := directive.Parse(fset, files)
	if len(bad) != 1 {
		t.Fatalf("want 1 bad directive, got %d", len(bad))
	}
	if bad[0].Pos.Line != 3 {
		t.Errorf("bad directive reported at line %d, want 3", bad[0].Pos.Line)
	}
}

func TestSimilarPrefixIgnored(t *testing.T) {
	fset, files := parse(t, `package p

//lint:allowed is a different word entirely
func f() {}
`)
	m, bad := directive.Parse(fset, files)
	if len(bad) != 0 {
		t.Fatalf("//lint:allowed must not parse as a malformed directive: %v", bad)
	}
	if m.Allows("is", "d.go", 3) {
		t.Errorf("//lint:allowed must not register any allowance")
	}
}
