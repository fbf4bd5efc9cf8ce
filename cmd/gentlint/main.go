// Command gentlint is the gent engine's project-specific static analysis
// suite — the concurrency, epoch and error invariants of the server engine,
// machine-enforced (see internal/analysis for the invariant catalog).
//
// Standalone, over package patterns:
//
//	gentlint ./...
//	gentlint -only ctxflow,snappin ./internal/...
//
// Or as a go vet tool (the unitchecker protocol):
//
//	go vet -vettool=$(which gentlint) ./...
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. Findings are
// suppressed by a `//lint:allow <analyzer> <reason>` comment on the same
// line or the line above; -show-suppressed prints those too.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gent/internal/analysis"
	"gent/internal/analysis/framework"
)

func main() {
	var (
		flagV          = flag.String("V", "", "print version and exit (go vet tool-id handshake: -V=full)")
		list           = flag.Bool("list", false, "list the analyzers and exit")
		only           = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		showSuppressed = flag.Bool("show-suppressed", false, "also print //lint:allow-suppressed findings")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: gentlint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	// cmd/go probes `gentlint -flags` for the tool's flag schema before it
	// ever runs a unit; answer before flag.Parse, which would reject it.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		printFlagDefs()
		return
	}
	flag.Parse()

	if *flagV != "" {
		// cmd/go derives the vet tool's cache ID from `-V=full` output; a
		// "devel" version must carry a trailing buildID=<hash> field, and
		// hashing our own binary means the vet cache turns over exactly when
		// the tool does.
		fmt.Printf("gentlint version %s buildID=%s\n", version(), selfID())
		return
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gentlint:", err)
		os.Exit(2)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	args := flag.Args()
	// A single *.cfg argument is go vet handing us a unit of work.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(framework.RunUnit(args[0], analyzers, os.Stderr))
	}

	if len(args) == 0 {
		args = []string{"."}
	}
	pkgs, err := framework.Load(".", args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gentlint:", err)
		os.Exit(2)
	}
	broken := false
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			broken = true
			fmt.Fprintf(os.Stderr, "gentlint: %s: %v\n", p.ImportPath, terr)
		}
	}
	if broken {
		os.Exit(2) // diagnostics over broken code are unreliable
	}
	diags, err := framework.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gentlint:", err)
		os.Exit(2)
	}
	findings, suppressed := 0, 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
			if *showSuppressed {
				fmt.Printf("%s: %s (%s, suppressed)\n", d.Pos, d.Message, d.Analyzer)
			}
			continue
		}
		findings++
		fmt.Printf("%s: %s (%s)\n", d.Pos, d.Message, d.Analyzer)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "gentlint: %d finding(s), %d suppressed\n", findings, suppressed)
		os.Exit(1)
	}
}

func selectAnalyzers(only string) ([]*framework.Analyzer, error) {
	all := analysis.Suite()
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*framework.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*framework.Analyzer
	for _, name := range strings.Split(only, ",") {
		a := byName[strings.TrimSpace(name)]
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		picked = append(picked, a)
	}
	return picked, nil
}

// printFlagDefs answers go vet's -flags probe: a JSON array of the flags the
// tool accepts, so cmd/go knows which command-line flags to forward.
func printFlagDefs() {
	type flagDef struct {
		Name  string
		Bool  bool
		Usage string
	}
	var defs []flagDef
	flag.VisitAll(func(f *flag.Flag) {
		isBool := false
		if getter, ok := f.Value.(flag.Getter); ok {
			_, isBool = getter.Get().(bool)
		}
		defs = append(defs, flagDef{Name: f.Name, Bool: isBool, Usage: f.Usage})
	})
	data, err := json.MarshalIndent(defs, "", "\t")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gentlint:", err)
		os.Exit(2)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

func version() string {
	// The suite ships inside the module it lints, so the module version is
	// the toolchain pin; "devel" covers in-tree builds.
	return "devel"
}

// selfID is the content hash of the running binary.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gentlint:", err)
		os.Exit(2)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, "gentlint:", err)
		os.Exit(2)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
