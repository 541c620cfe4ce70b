package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dart/internal/aggrcons"
	"dart/internal/consparse"
	"dart/internal/core"
	"dart/internal/docgen"
	"dart/internal/milp"
	"dart/internal/relational"
	"dart/internal/runningex"
)

// FuzzSolversAgree is the semantic cross-check of the one-shot entry
// point: on a small generated cash budget with 1–3 corrupted cells, the
// MILP solver and the exact cardinality search must both reach an optimum
// of the same cardinality, and the MILP repair must restore consistency.
// The seeded corpus runs under plain go test; go test -fuzz explores more.
func FuzzSolversAgree(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(seed))
	}
	acs := runningex.Constraints()
	f.Fuzz(func(t *testing.T, seed int64, yearsIn, errsIn uint8) {
		rng := rand.New(rand.NewSource(seed))
		db := docgen.BudgetDatabase(docgen.RandomBudget(rng, 2000, 2+int(yearsIn%2)))
		rel := db.Relation("CashBudget")
		tuples := rel.Tuples()
		for _, pi := range rng.Perm(len(tuples))[:1+int(errsIn%3)] {
			tp := tuples[pi]
			nv := tp.Get("Value").AsInt() + int64(10*(1+rng.Intn(50)))
			if err := rel.SetValue(tp.ID(), "Value", relational.Int(nv)); err != nil {
				t.Fatal(err)
			}
		}

		ctx := context.Background()
		mres, err := core.FindRepair(ctx, &core.MILPSolver{}, db, acs, nil)
		if err != nil {
			t.Fatalf("milp: %v", err)
		}
		cres, err := core.FindRepair(ctx, &core.CardinalitySearchSolver{}, db, acs, nil)
		if err != nil {
			t.Fatalf("card-search: %v", err)
		}
		if mres.Status != milp.StatusOptimal || cres.Status != milp.StatusOptimal {
			t.Fatalf("statuses milp=%v card-search=%v", mres.Status, cres.Status)
		}
		if mres.Card != cres.Card {
			t.Fatalf("card milp=%d card-search=%d\nmilp repair:\n%s\ncard-search repair:\n%s",
				mres.Card, cres.Card, mres.Repair, cres.Repair)
		}
		prob, err := core.Prepare(db, acs)
		if err != nil {
			t.Fatal(err)
		}
		if err := prob.VerifyRepair(mres.Repair, 1e-6); err != nil {
			t.Fatalf("milp repair rejected: %v", err)
		}
	})
}

// fuzzChoices draws bounded choices from fuzz input; an exhausted input
// yields zeros.
type fuzzChoices struct{ data []byte }

func (c *fuzzChoices) n(k int) int {
	if k <= 1 || len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) % k
}

func (c *fuzzChoices) pick(xs ...string) string { return xs[c.n(len(xs))] }

var (
	groundFuzzKeys  = []string{"a", "b", "a;0", ""}
	groundFuzzInts  = []int64{0, 1, 2, -1}
	groundFuzzReals = []float64{0, math.Copysign(0, -1), 1, 2, math.NaN(), 0.1}
)

// groundFuzzFuncs are the aggregation functions a fuzzed constraint calls:
// exact key buckets on strings, on Int and Real keys, a key bucket with a
// further conjunct and a non-measure term, a clause without key conjuncts,
// and a second relation.
const groundFuzzFuncs = `
func f(a) := SELECT sum(V) FROM R WHERE K = a
func g(a, b) := SELECT sum(V) FROM R WHERE Y = a AND b = X
func h(a) := SELECT sum(2*V + X) FROM R WHERE K = a AND Y > 0
func u(a) := SELECT sum(V) FROM R WHERE X = a OR K = 'a'
func w(a) := SELECT sum(W) FROM T WHERE K = a
`

// groundFuzzDB builds R(K: S, Y: Z, X: R, V: Z) and T(K: S, W: R), with
// measures V and W, from repeated small values, -0, +0 and NaN.
func groundFuzzDB(c *fuzzChoices) *relational.Database {
	db := relational.NewDatabase()
	r := db.MustAddRelation(relational.MustSchema("R",
		relational.Attribute{Name: "K", Domain: relational.DomainString},
		relational.Attribute{Name: "Y", Domain: relational.DomainInt},
		relational.Attribute{Name: "X", Domain: relational.DomainReal},
		relational.Attribute{Name: "V", Domain: relational.DomainInt},
	))
	tr := db.MustAddRelation(relational.MustSchema("T",
		relational.Attribute{Name: "K", Domain: relational.DomainString},
		relational.Attribute{Name: "W", Domain: relational.DomainReal},
	))
	for _, m := range [][2]string{{"R", "V"}, {"T", "W"}} {
		if err := db.DesignateMeasure(m[0], m[1]); err != nil {
			panic(err)
		}
	}
	for n := c.n(10); n > 0; n-- {
		r.MustInsert(
			relational.String(groundFuzzKeys[c.n(len(groundFuzzKeys))]),
			relational.Int(groundFuzzInts[c.n(len(groundFuzzInts))]),
			relational.Real(groundFuzzReals[c.n(len(groundFuzzReals))]),
			relational.Int(groundFuzzInts[c.n(len(groundFuzzInts))]),
		)
	}
	for n := c.n(6); n > 0; n-- {
		tr.MustInsert(
			relational.String(groundFuzzKeys[c.n(len(groundFuzzKeys))]),
			relational.Real(groundFuzzReals[c.n(len(groundFuzzReals))]),
		)
	}
	return db
}

// groundFuzzConstraint renders one constraint: a body of one or two atoms
// with variables, constants and wildcards (a shared k joins R and T; a
// variable on V makes it non-steady), and one to three calls whose
// arguments are body variables or constants.
func groundFuzzConstraint(c *fuzzChoices, i int) string {
	body := []string{"R(" + c.pick("k", "k", "'a'", "_") + ", " + c.pick("y", "y", "1", "_") + ", " +
		c.pick("x", "x", "-0.0", "0.0", "_") + ", " + c.pick("_", "_", "_", "v") + ")"}
	if c.n(3) == 0 {
		body = append(body, "T("+c.pick("k", "k", "'b'", "_")+", _)")
	}
	arg := func(vars ...string) string { return c.pick(vars...) }
	var calls []string
	for n := 1 + c.n(3); n > 0; n-- {
		coeff := c.pick("", "", "-", "2*", "-0.5*")
		switch c.n(5) {
		case 0:
			calls = append(calls, coeff+"f("+arg("k", "y", "'a'", "''")+")")
		case 1:
			calls = append(calls, coeff+"g("+arg("y", "x", "1")+", "+arg("x", "y", "-0.0", "0.0")+")")
		case 2:
			calls = append(calls, coeff+"h("+arg("k", "'b'")+")")
		case 3:
			calls = append(calls, coeff+"u("+arg("x", "1.0", "k")+")")
		default:
			calls = append(calls, coeff+"w("+arg("k", "'a;0'")+")")
		}
	}
	sum := calls[0]
	for _, cl := range calls[1:] {
		if strings.HasPrefix(cl, "-") {
			sum += " - " + cl[1:]
		} else {
			sum += " + " + cl
		}
	}
	return fmt.Sprintf("constraint k%d:\n  %s ==> %s %s %s\n", i, strings.Join(body, ", "), sum,
		c.pick("=", "<=", ">="), c.pick("0", "1", "-2"))
}

// FuzzGroundingMatchesReference holds the grounding and the translation to
// their references on small random relations and constraints: NewGrounding
// gives RefGroundAll's grounds in order, with equal keys and bit-equal
// arguments, and each call's T_chi is the AggFunc.Tuples scan; BuildSystem
// and Split equal RefBuildSystem and RefSplit bit for bit, or both fail.
func FuzzGroundingMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 96)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &fuzzChoices{data: data}
		db := groundFuzzDB(c)
		src := groundFuzzFuncs
		for i := 1 + c.n(3); i > 0; i-- {
			src += groundFuzzConstraint(c, i)
		}
		cat, err := consparse.Parse(src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		acs := cat.Constraints

		// The reference grounding fails where NewGrounding must: on an
		// invalid constraint or a failing scan.
		var refErr error
		want := make([][]*aggrcons.Ground, len(acs))
		for ki, k := range acs {
			if refErr = k.Validate(db); refErr != nil {
				break
			}
			want[ki] = core.RefGroundAll(k, db)
		}
		g, err := aggrcons.NewGrounding(db, acs)
		if refErr == nil {
			for ki, k := range acs {
				for _, gr := range want[ki] {
					for ci, call := range k.Calls {
						if _, refErr = call.Func.Tuples(db, gr.Args[ci]); refErr != nil {
							break
						}
					}
				}
			}
		}
		if (err != nil) != (refErr != nil) {
			t.Fatalf("NewGrounding error %v, reference error %v\n%s", err, refErr, src)
		}
		if err != nil {
			return
		}
		for ki, k := range acs {
			got := g.Grounds(ki)
			if len(got) != len(want[ki]) {
				t.Fatalf("%s: %d grounds, reference %d\n%s", k.Name, len(got), len(want[ki]), src)
			}
			for gi, gr := range got {
				w := want[ki][gi]
				if gr.Key() != w.Key() || !slices.EqualFunc(gr.Args, w.Args, sameValueBits) {
					t.Fatalf("%s ground %d: %s %v, reference %s %v\n%s", k.Name, gi, gr.Key(), gr.Args, w.Key(), w.Args, src)
				}
				for ci, call := range k.Calls {
					scan, _ := call.Func.Tuples(db, gr.Args[ci])
					if !slices.Equal(g.Tuples(ki, gi, ci), scan) {
						t.Fatalf("%s ground %d call %d: T_chi %v, scan %v\n%s", k.Name, gi, ci, g.Tuples(ki, gi, ci), scan, src)
					}
				}
			}
		}

		sys, err := core.BuildSystem(db, acs)
		ref, refErr := core.RefBuildSystem(db, acs)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("BuildSystem error %v, reference error %v\n%s", err, refErr, src)
		}
		if err != nil {
			return
		}
		sameSystem(t, "BuildSystem", sys, ref)
		comps, refComps := sys.Split(), core.RefSplit(ref)
		if len(comps) != len(refComps) {
			t.Fatalf("%d components, reference %d\n%s", len(comps), len(refComps), src)
		}
		for i := range comps {
			sameSystem(t, fmt.Sprintf("component %d", i), comps[i], refComps[i])
		}
	})
}

// sameValueBits reports whether two argument lists hold values of the
// same kinds with the same bits.
func sameValueBits(a, b []relational.Value) bool {
	return slices.EqualFunc(a, b, func(x, y relational.Value) bool {
		return string(x.AppendIdentity(nil)) == string(y.AppendIdentity(nil))
	})
}
