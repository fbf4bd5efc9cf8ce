package analysis

import (
	"gent/internal/analysis/ctxflow"
	"gent/internal/analysis/framework"
	"gent/internal/analysis/nakedgo"
	"gent/internal/analysis/phaseerr"
	"gent/internal/analysis/snappin"
)

// Suite returns the gentlint analyzers, in the order they are run and
// listed. Each is independent; cmd/gentlint's -only flag selects subsets.
func Suite() []*framework.Analyzer {
	return []*framework.Analyzer{
		ctxflow.Analyzer,
		nakedgo.Analyzer,
		phaseerr.Analyzer,
		snappin.Analyzer,
	}
}
