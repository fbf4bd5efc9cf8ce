package gent

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// linkAllowlist names the non-test functions under internal/ that no binary
// links but that stay in non-test files. An entry is a package import path
// (every function in it), a path ending in /... (every function in that
// package and the packages below it) or a function as the gate prints it.
// Every entry carries its reason; keep the list short.
var linkAllowlist = map[string]string{
	// Test-support packages: other packages' tests import them, so they
	// cannot live in one package's _test.go files.
	"gent/internal/analysis/...":  "the lint suite, which only its tests run (TestRepoIsGentlintClean and each analyzer's own)",
	"gent/internal/lake/laketest": "lake fixtures, imported by the tests of several packages",
	// Cross-package oracles: tests in several packages compare with them.
	"gent/internal/table.EqualRows":    "row-multiset oracle the tests of several packages compare with",
	"gent/internal/table.SameInstance": "instance-equality oracle the tests of several packages compare with",
	// Planned callers.
	"gent/internal/table.(*Dict).ValueOf":    "the spelling-exception lists of ROADMAP item 13 read it",
	"gent/internal/index.(*Inverted).Shards": "core's session-width test reads it; goes with IndexShards in ROADMAP item 7",
}

// TestEveryFunctionLinked builds every binary of the module with inlining
// off and fails on any function declared in a non-test file under internal/
// that none of them links and linkAllowlist does not name. Code only tests
// reach belongs in a _test.go file; code nothing reaches belongs nowhere.
func TestEveryFunctionLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of the module")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator),
		"./cmd/...", "./bench", "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	linked := linkedSymbols(t, bin)

	var unlinked []string
	used := make(map[string]bool)
	for _, fn := range declaredFuncs(t, "internal") {
		if fn.linkedIn(linked) {
			continue
		}
		if entry, ok := allowedBy(fn); ok {
			used[entry] = true
			continue
		}
		unlinked = append(unlinked, fn.name()+" ("+fn.pos+")")
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("linked into no binary: %s", u)
	}
	for entry := range linkAllowlist {
		if !used[entry] {
			t.Errorf("allowlist entry %s names nothing unlinked: drop it", entry)
		}
	}
}

// allowedBy returns the linkAllowlist entry that lets fn stay unlinked.
func allowedBy(fn declaredFunc) (string, bool) {
	for entry := range linkAllowlist {
		if entry == fn.pkg || entry == fn.name() {
			return entry, true
		}
		if tree, ok := strings.CutSuffix(entry, "/..."); ok && (fn.pkg == tree || strings.HasPrefix(fn.pkg, tree+"/")) {
			return entry, true
		}
	}
	return "", false
}

// linkedSymbols returns the text symbols of every binary in dir, with type
// arguments stripped: (*FlatReader[[]uint8]).Next reads (*FlatReader).Next.
func linkedSymbols(t *testing.T, dir string) map[string]bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	syms := make(map[string]bool)
	for _, e := range ents {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "addr T name", where name may hold spaces inside brackets.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				syms[stripTypeArgs(f[2])] = true
			}
		}
	}
	return syms
}

// stripTypeArgs drops every bracketed type-argument list from a symbol.
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declaredFunc is one func declaration in a non-test file.
type declaredFunc struct {
	pkg, recv, fn string // recv is the receiver's type name, "" for a function
	ptr           bool   // pointer receiver
	pos           string
}

// name renders the function as the linker spells it.
func (d declaredFunc) name() string {
	switch {
	case d.recv == "":
		return d.pkg + "." + d.fn
	case d.ptr:
		return d.pkg + ".(*" + d.recv + ")." + d.fn
	default:
		return d.pkg + "." + d.recv + "." + d.fn
	}
}

// linkedIn reports whether a binary carries the function. A value-receiver
// method also counts through its (*T).M wrapper.
func (d declaredFunc) linkedIn(syms map[string]bool) bool {
	if syms[d.name()] {
		return true
	}
	return d.recv != "" && !d.ptr && syms[d.pkg+".(*"+d.recv+")."+d.fn]
}

// declaredFuncs lists every func declared in a non-test Go file under root,
// skipping testdata directories. init functions run without a caller and are
// left out.
func declaredFuncs(t *testing.T, root string) []declaredFunc {
	t.Helper()
	fset := token.NewFileSet()
	var out []declaredFunc
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "gent/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			df := declaredFunc{pkg: pkg, fn: fd.Name.Name, pos: fset.Position(fd.Pos()).String()}
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				df.recv, df.ptr = recvType(fd.Recv.List[0].Type)
			}
			out = append(out, df)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recvType names a receiver's base type, dropping its type parameters.
func recvType(e ast.Expr) (name string, ptr bool) {
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return e.(*ast.Ident).Name, ptr
}
