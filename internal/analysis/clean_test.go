package analysis_test

import (
	"testing"

	"gent/internal/analysis"
	"gent/internal/analysis/framework"
)

// TestRepoIsGentlintClean runs the whole suite over the whole module, tests
// included: it is the suite's one driver. Every finding must either be fixed
// or carry a reviewed //lint:allow; a failure here means a new invariant
// violation crept in.
func TestRepoIsGentlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire module")
	}
	pkgs, err := framework.Load("../..", "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.ImportPath, terr)
		}
	}
	if t.Failed() {
		t.FailNow() // diagnostics over broken code are unreliable
	}
	diags, err := framework.Run(pkgs, analysis.Suite())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		t.Errorf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
	}
}
