// Package analysistest runs one analyzer over a testdata package and checks
// its diagnostics against // want annotations — a self-contained analogue
// of golang.org/x/tools/go/analysis/analysistest.
//
// Testdata layout mirrors x/tools: files live under
// testdata/src/<importpath>/, one package per directory, and the directory
// path is the package's import path. That lets a test give its package an
// in-scope path (phaseerr only fires inside the pipeline packages, so its
// testdata declares itself as gent/internal/discovery) and lets testdata
// import the module's real packages (snappin testdata imports
// gent/internal/lake and pins real snapshots).
//
// Expectations are comments of the form
//
//	_ = l.Snapshot() // want "second snapshot/epoch-state load"
//
// where each quoted string is a regexp that must match one diagnostic
// reported on that line. Diagnostics suppressed by //lint:allow are treated
// as not reported, so a testdata line carrying both a violation and a
// directive — and no want — exercises the suppression path.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gent/internal/analysis/framework"
)

// stdImports are standard-library packages testdata may import even when
// the module's own dependency closure doesn't reach them.
var stdImports = []string{"context", "errors", "fmt", "os", "strings", "sync", "time"}

var exportsOnce struct {
	sync.Once
	m   map[string]string
	err error
}

// exports returns the shared import-path -> export-data map covering the
// whole module plus common std packages, built once per test binary.
func exports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		patterns := append([]string{"./..."}, stdImports...)
		exportsOnce.m, exportsOnce.err = framework.ListExports(moduleRoot(), patterns...)
	})
	if exportsOnce.err != nil {
		t.Fatalf("resolving module export data: %v", exportsOnce.err)
	}
	return exportsOnce.m
}

// moduleRoot locates the repo root: go test runs each analyzer's suite
// inside internal/analysis/<name>/, a fixed walk below it.
func moduleRoot() string {
	return filepath.Join("..", "..", "..")
}

// Run analyzes testdata/src/<pkgPath> with a and verifies the diagnostics
// against the package's // want annotations.
func Run(t *testing.T, a *framework.Analyzer, pkgPath string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(pkgPath))
	pkg, err := framework.LoadDirPackage(dir, pkgPath, exports(t))
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("testdata does not type-check: %v", terr)
	}
	if t.Failed() {
		t.FailNow()
	}
	diags, err := framework.Run([]*framework.Package{pkg}, []*framework.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, pkg)
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		key := posKey(d.Pos.Filename, d.Pos.Line)
		if !consumeWant(wants[key], d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", d.Pos, d.Message, d.Analyzer)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

func posKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

func consumeWant(ws []*want, message string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

var wantRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

// collectWants parses the // want annotations of every file in pkg.
func collectWants(t *testing.T, pkg *framework.Package) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantRe.FindAllString(text, -1) {
					pattern := q
					if strings.HasPrefix(q, `"`) {
						var err error
						pattern, err = strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
					} else {
						pattern = strings.Trim(q, "`")
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %s: %v", pos, q, err)
					}
					key := posKey(pos.Filename, pos.Line)
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	return wants
}
