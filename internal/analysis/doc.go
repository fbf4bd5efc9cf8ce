// Package analysis is gentlint: the engine's project-specific static
// analysis suite. It machine-enforces invariants this codebase has already
// paid to learn — each analyzer encodes either a bug that shipped here or a
// discipline whose erosion produced one.
//
// The suite runs as a test: TestRepoIsGentlintClean
// (internal/analysis/clean_test.go) loads the whole module, tests included,
// and fails on every finding, so `go test ./...` enforces it and
//
//	go test ./internal/analysis
//
// runs it alone. A finding is fixed or carries a reviewed suppression:
//
//	cur := l.Snapshot() //lint:allow snappin the snapshots on both sides of the Apply are what Diff compares
//
// The directive (package directive) suppresses the named analyzers on its
// own line and the line below it; a //lint:allow that names no analyzer is
// itself reported, so a typo cannot silently suppress nothing.
//
// # The invariants
//
// Four analyzers. Reading a lake through a pinned Snapshot and mutating it
// through Apply needs none: Lake has no other read or write methods, so the
// compiler enforces it.
//
// snappin — at most one snapshot/epoch-state load (Lake.Snapshot,
// Lake.Epoch, and in internal/core the Reclaimer's state/acquire) per
// function; pin once at entry and pass the pinned value down. PR 5's
// incident is the motivation: the session's read path consulted byName
// state across two loads, and a concurrent Apply between them produced
// torn reads the -race suite only caught under a focused interleaving
// rerun. Within one function there is no legitimate reason to observe two
// epochs; code that genuinely must observe two (the benchmark's churn
// mirror diffs the snapshots on both sides of an Apply) annotates the
// second load.
//
// phaseerr — errors crossing a phase boundary in internal/core, discovery,
// matrix, and integrate are *core.Error values tagging their Phase, and
// fmt.Errorf over an error operand wraps with %w, not %v/%s. The v2 API
// contract (PR 3) is that callers can errors.Is/As through any pipeline
// failure and observers can attribute it to a phase; one %v deep in a call
// chain severs both.
//
// nakedgo — every go statement in library code must be visibly tied to its
// teardown: a WaitGroup the spawner waits on, a ctx.Done the goroutine
// selects on, a channel the spawner drains or closes. PR 2 shipped the
// counterexample — a per-candidate scoring fan-out nested inside a
// per-source fan-out, GOMAXPROCS² goroutines with nothing bounding or
// joining them. The pool shapes that replaced it (internal/core/stream.go)
// are the patterns the analyzer accepts; a goroutine whose lifetime the
// spawner provably cannot see is a finding.
//
// ctxflow — context roots (context.Background, context.TODO) belong in
// package main, examples, and tests. Library code accepts a ctx; the two
// sanctioned exceptions are the compat shim (a no-ctx function passing
// Background directly into a context-first call) and nil-ctx defaulting
// (ctx = context.Background()). TODO is never sanctioned — it marks
// unmigrated call sites, and every call site has been migrated.
//
// # Coverage of the storage tier
//
// The beyond-RAM storage layer (the lake's budgeted resident cache and
// Persist/Open, table segment I/O, the compressed inverted index)
// introduced no new analyzer: the existing invariants generalize to it and
// the suite checks it like any other library code. Its goroutine pools —
// the parallel index build, the probe fan-out, parallel pre-interning — are
// WaitGroup- or channel-tied per nakedgo; its session and lake read paths
// pin one snapshot per function per snappin; its persistence and
// segment-verification errors wrap causes with %w per phaseerr; and
// eviction, spill and reload (whose segment read alone runs outside the
// cache's lock) have no context roots, keeping ctxflow silent.
//
// # Architecture
//
// The suite does not depend on golang.org/x/tools. Package framework is a
// self-contained reimplementation of the slice of go/analysis the suite
// needs: a loader over `go list -export` (type-checking against build-cache
// export data, including test-augmented package variants), an Analyzer/Pass
// vocabulary, and a diagnostics runner with directive-aware suppression.
// Package analysistest mirrors x/tools' analysistest: testdata packages
// under each analyzer carry `// want "regexp"` expectations.
package analysis
