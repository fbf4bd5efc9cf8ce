package analysis

import (
	"gent/internal/analysis/ctxflow"
	"gent/internal/analysis/framework"
	"gent/internal/analysis/nakedgo"
	"gent/internal/analysis/phaseerr"
	"gent/internal/analysis/snappin"
)

// Suite returns the gentlint analyzers, in the order they are run. Each is
// independent; an analyzer's own tests run it alone.
func Suite() []*framework.Analyzer {
	return []*framework.Analyzer{
		ctxflow.Analyzer,
		nakedgo.Analyzer,
		phaseerr.Analyzer,
		snappin.Analyzer,
	}
}
