// Package analysis collects the lds-lint analyzers. Each analyzer
// mechanically enforces one invariant the repo previously stated only in
// prose; ARCHITECTURE.md's "Enforced invariants" table maps analyzers to
// the rules and the PRs that introduced them.
package analysis

import (
	"github.com/lds-storage/lds/internal/analysis/goexit"
	"github.com/lds-storage/lds/internal/analysis/leasefence"
	"github.com/lds-storage/lds/internal/analysis/lint"
	"github.com/lds-storage/lds/internal/analysis/locksend"
	"github.com/lds-storage/lds/internal/analysis/retention"
	"github.com/lds-storage/lds/internal/analysis/syncpublish"
	"github.com/lds-storage/lds/internal/analysis/walorder"
)

// All returns every lds-lint analyzer, in the order cmd/lds-lint runs
// them.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		retention.Analyzer,
		locksend.Analyzer,
		walorder.Analyzer,
		leasefence.Analyzer,
		syncpublish.Analyzer,
		goexit.Analyzer,
	}
}
