package consparse_test

import (
	"strings"
	"testing"

	"dart/internal/aggrcons"
	"dart/internal/consparse"
	"dart/internal/relational"
	"dart/internal/runningex"
	"dart/internal/scenario"
)

// constraintBlock extracts the constraint source between "constraints:" and
// "end" of a metadata file.
func constraintBlock(metadata string) string {
	_, rest, _ := strings.Cut(metadata, "\nconstraints:\n")
	block, _, _ := strings.Cut(rest, "\nend\n")
	return block
}

// FuzzParse checks that the parser never panics and that every function it
// parses gets the same T_chi from the per-pass evaluator as from the scan,
// on the running example with arguments drawn from its tuples.
func FuzzParse(f *testing.F) {
	for _, md := range []string{scenario.CashBudgetSource(), scenario.CatalogSource(), scenario.BalanceSheetSource()} {
		block := constraintBlock(md)
		if cat, err := consparse.Parse(block); err != nil || len(cat.Constraints) == 0 {
			f.Fatalf("scenario constraint block does not parse to constraints (%v):\n%s", err, block)
		}
		f.Add(block)
	}
	for _, src := range []string{
		runningExampleSource,
		`func f(a, t) := SELECT sum(Value) FROM CashBudget WHERE a = Year AND t = Type AND Value > 50`,
		`func f(a) := SELECT sum(Value) FROM CashBudget WHERE (Year = a OR Year = 2004) AND NOT (Type <> 'det')`,
		`func f(a, b) := SELECT sum(2*(Value) - 1) FROM CashBudget WHERE Year = a AND (Section = b AND Subsection <> 'cash sales')`,
		`func f(a) := SELECT sum(Value) FROM CashBudget WHERE Nope = a AND Year = a`,
		`func f(a) := SELECT sum(Value) FROM CashBudget WHERE Year = a AND Type = 3`,
		`func f(a) := SELECT sum(Value) FROM Missing WHERE Year = a`,
	} {
		f.Add(src)
	}
	db := runningex.AcquiredDatabase()
	tuples := db.Relation("CashBudget").Tuples()
	f.Fuzz(func(t *testing.T, src string) {
		cat, err := consparse.Parse(src)
		if err != nil {
			return
		}
		ev := aggrcons.NewEvaluator(db)
		for _, name := range cat.FuncOrder {
			fn := cat.Funcs[name]
			// Bind each parameter to the attribute it is compared with, so
			// calls select real tuples.
			paramAttr := map[int]string{}
			aggrcons.WalkCmps(fn.Where, func(c aggrcons.Cmp) {
				if a, ok := c.L.IsAttr(); ok {
					if p, ok := c.R.IsParam(); ok {
						paramAttr[p] = a
					}
				}
				if a, ok := c.R.IsAttr(); ok {
					if p, ok := c.L.IsParam(); ok {
						paramAttr[p] = a
					}
				}
			})
			for _, tp := range tuples {
				args := make([]relational.Value, fn.Arity())
				for i := range args {
					if a, ok := paramAttr[i]; ok && tp.Schema().HasAttr(a) {
						args[i] = tp.Get(a)
					} else {
						args[i] = tp.At(i % tp.Schema().Arity())
					}
				}
				want, werr := fn.Tuples(db, args)
				got, gerr := ev.Tuples(fn, args)
				if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
					t.Fatalf("%s on %v: evaluator error %v, scan error %v", fn, args, gerr, werr)
				}
				if len(got) != len(want) {
					t.Fatalf("%s on %v: evaluator %v, scan %v", fn, args, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s on %v: evaluator %v, scan %v", fn, args, got, want)
					}
				}
			}
		}
	})
}
