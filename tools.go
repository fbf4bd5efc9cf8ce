//go:build tools

// This file pins the module's build tools as the vet/lint toolchain other
// code depends on, following the golang.org/x "tools.go" convention: the
// tools build tag keeps it out of every real build, while the imports keep
// `go mod tidy` and dependency tooling aware that cmd/gentlint is part of
// the build contract (CI builds it from this module at the repo's own
// commit — the strictest version pin there is).
// The third-party staticcheck binary cannot be pinned here without a
// network fetch, so its exact version is pinned in .github/workflows/ci.yml
// instead.
package tools

import _ "gent/cmd/gentlint"
