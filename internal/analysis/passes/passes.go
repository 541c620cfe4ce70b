// Package passes is the registry of dartvet's code analyzers: the one
// place that lists every pass and the package scope each runs on, shared
// by cmd/dartvet (the multichecker) and cmd/dartbench (the vet
// benchmark) so the two can never drift.
package passes

import (
	"strings"

	"dart/internal/analysis"
	"dart/internal/analysis/ctxloop"
	"dart/internal/analysis/errsink"
	"dart/internal/analysis/floatcmp"
	"dart/internal/analysis/lockcheck"
	"dart/internal/analysis/lockhold"
	"dart/internal/analysis/spanleak"
	"dart/internal/analysis/walorder"
)

// Scopes maps each analyzer to the import-path suffixes it runs on. A
// pass runs on a package when the package's import path ends in one of
// the suffixes; a "/..." suffix also matches everything below that
// prefix, and an empty list means every loaded package.
var Scopes = map[string][]string{
	ctxloop.Analyzer.Name: {
		"internal/core", "internal/milp", "internal/service",
		"internal/analysis/...",
	},
	floatcmp.Analyzer.Name: {"internal/core", "internal/milp"},
	lockcheck.Analyzer.Name: {
		"internal/milp", "internal/repair", "internal/service", "internal/store",
	},
	spanleak.Analyzer.Name: {
		"internal/core", "internal/milp", "internal/obs", "internal/service",
		"internal/store", "internal/validate", "cmd/dart", "cmd/dartd",
	},
	walorder.Analyzer.Name: {"internal/service"},
	errsink.Analyzer.Name: {
		"internal/store", "internal/service", "internal/analysis/...",
	},
	lockhold.Analyzer.Name: {
		"internal/obs", "internal/service", "internal/repair", "internal/store",
	},
}

// All returns every registered code analyzer in a stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxloop.Analyzer,
		errsink.Analyzer,
		floatcmp.Analyzer,
		lockcheck.Analyzer,
		lockhold.Analyzer,
		spanleak.Analyzer,
		walorder.Analyzer,
	}
}

// Active returns the analyzers whose scope covers importPath.
func Active(importPath string) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, a := range All() {
		if InScope(importPath, Scopes[a.Name]) {
			out = append(out, a)
		}
	}
	return out
}

// InScope reports whether importPath ends in one of the suffixes. A
// suffix ending in "/..." matches the named package and every package
// below it; an empty suffix list matches everything.
func InScope(importPath string, suffixes []string) bool {
	if len(suffixes) == 0 {
		return true
	}
	for _, s := range suffixes {
		if tree, ok := strings.CutSuffix(s, "/..."); ok {
			if importPath == tree || strings.HasSuffix(importPath, "/"+tree) ||
				strings.Contains(importPath, "/"+tree+"/") || strings.HasPrefix(importPath, tree+"/") {
				return true
			}
			continue
		}
		if importPath == s || strings.HasSuffix(importPath, "/"+s) {
			return true
		}
	}
	return false
}
