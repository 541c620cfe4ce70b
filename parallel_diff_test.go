package dart_test

// Differential tests for the parallel branch-and-bound kernel: repairs
// computed with a parallel worker budget (SolverWorkers/Workers > 1) must
// be byte-identical to the sequential solve on every built-in scenario.
// The milp package proves kernel-level determinism on random models; these
// tests run the full pipeline (extraction, grounding, decomposition,
// compile, solve, verify) so the guarantee is checked end to end. CI runs
// them under -race.

import (
	"fmt"
	"math/rand"
	"testing"

	"dart"
	"dart/internal/core"
	"dart/internal/docgen"
	"dart/internal/metadata"
	"dart/internal/ocr"
	"dart/internal/runningex"
	"dart/internal/scenario"
	"dart/internal/validate"
)

// scenarioDocs builds one corrupted document per built-in scenario.
func scenarioDocs(t *testing.T) []struct {
	name string
	md   *metadata.Metadata
	src  string
} {
	t.Helper()
	type entry = struct {
		name string
		md   *metadata.Metadata
		src  string
	}
	load := func(name string, mk func() (*metadata.Metadata, error), doc *docgen.Document, seed int64) entry {
		md, err := mk()
		if err != nil {
			t.Fatalf("%s metadata: %v", name, err)
		}
		noisy, _ := ocr.Corrupt(doc, ocr.Options{
			NumericErrors: 2,
			EligibleNumeric: func(table, row, col int, text string) bool {
				return !(row == 0 && col == 0)
			},
		}, rand.New(rand.NewSource(seed)))
		return entry{name, md, noisy.HTML()}
	}
	rng := rand.New(rand.NewSource(55))
	return []entry{
		load("cashbudget", scenario.CashBudget,
			docgen.BudgetDocument(docgen.RandomBudget(rng, 2000, 4)), 1),
		load("catalog", scenario.Catalog,
			docgen.OrdersDocument(docgen.RandomOrders(rng, 12)), 2),
		load("balancesheet", scenario.BalanceSheet,
			docgen.BalanceSheetDocument(docgen.RandomBalanceSheet(rng, 2000, 3)), 3),
	}
}

// runScenario flattens one pipeline run into a comparison string; errors
// are observable behaviour and must match too.
func runScenario(md *metadata.Metadata, src string, solverWorkers int) string {
	p := &dart.Pipeline{
		Metadata: md,
		Solver:   &core.MILPSolver{SolverWorkers: solverWorkers},
	}
	res, err := p.Process(src)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("repair:\n%s\nrepaired:\n%s", res.Repair, res.Repaired)
}

// TestParallelRepairMatchesSequentialScenarios: on every built-in scenario,
// a 4-worker branch-and-bound solve of the full pipeline returns the exact
// repair and repaired database of the sequential solve.
func TestParallelRepairMatchesSequentialScenarios(t *testing.T) {
	for _, sc := range scenarioDocs(t) {
		t.Run(sc.name, func(t *testing.T) {
			seq := runScenario(sc.md, sc.src, 1)
			par := runScenario(sc.md, sc.src, 4)
			if seq != par {
				t.Errorf("parallel solve diverged from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
			}
		})
	}
}

// TestParallelSessionMatchesSequential runs multi-iteration oracle
// validation sessions over the differential corpus with a 4-worker
// branch-and-bound budget: every session must be byte-identical to the
// sequential one, including operator decision counts, which depend on
// every intermediate repair.
func TestParallelSessionMatchesSequential(t *testing.T) {
	for _, doc := range diffCorpus() {
		t.Run(doc.name, func(t *testing.T) {
			run := func(solverWorkers int) string {
				return runDiffSession(&validate.Session{
					DB:                 doc.db,
					Constraints:        runningex.Constraints(),
					Solver:             &core.MILPSolver{SolverWorkers: solverWorkers},
					Operator:           &validate.OracleOperator{Truth: doc.truth},
					ReviewPerIteration: 1,
				})
			}
			if seq, par := run(1), run(4); par != seq {
				t.Errorf("SolverWorkers=4 diverged:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
			}
		})
	}
}
