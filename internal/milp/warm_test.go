package milp

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzModel decodes bytes into a small mixed model: 2–6 variables, integer
// or real, with finite or infinite bounds; 1–4 rows of each relation with
// coefficients from {0, ±1, ±2, ±10, ±1000}. Exhausted input reads as
// zeros, so every byte string is a model.
func fuzzModel(data []byte) *Model {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	coeffs := []float64{0, 1, -1, 2, -2, 10, -10, 1000, -1000}
	m := NewModel()
	nv := 2 + next()%5
	for j := 0; j < nv; j++ {
		typ := Integer
		if next()%3 == 0 {
			typ = Continuous
		}
		lb, ub := 0.0, float64(1+next()%6)
		switch next() % 8 {
		case 0:
			lb = -float64(next() % 4)
		case 1:
			ub = math.Inf(1)
		case 2:
			lb = math.Inf(-1)
		}
		m.AddVar("x", lb, ub, typ, float64(next()%9-4))
	}
	nc := 1 + next()%4
	for i := 0; i < nc; i++ {
		terms := make([]Term, 0, nv)
		for j := 0; j < nv; j++ {
			if c := coeffs[next()%len(coeffs)]; c != 0 {
				terms = append(terms, Term{Var(j), c})
			}
		}
		rel := []Rel{LE, EQ, GE}[next()%3]
		rhs := float64(next()%41 - 20)
		if next()%4 == 0 {
			rhs *= 100
		}
		m.MustAddConstraint("c", terms, rel, rhs)
	}
	return m
}

// agree reports whether two objectives match to the solver's precision.
func agree(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

// FuzzNodeLPWarmMatchesCold checks the warm re-solve of branch and bound
// against cold solves on random small models. After an optimal LP, one
// basic variable's bound is tightened past its value: resolve and a cold
// solve of the tightened LP must agree on status and objective. Full branch
// and bound with dives must agree with a search that solves every node
// cold. Every returned point must be feasible.
func FuzzNodeLPWarmMatchesCold(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 48)
		rng.Read(seed)
		f.Add(seed, uint8(i), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, pick uint8, down bool) {
		checkWarmLP(t, data, int(pick), down)

		opt := MILPOptions{MaxNodes: 5000}.withDefaults()
		dive, err := branchAndBound(fuzzModel(data), opt, false)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := branchAndBound(fuzzModel(data), opt, true)
		if err != nil {
			t.Fatal(err)
		}
		if dive.Status == StatusIterLimit || cold.Status == StatusIterLimit {
			return // a node budget cut either search short: nothing to compare
		}
		if dive.Status != cold.Status {
			t.Fatalf("branch and bound: dives %v, cold %v", dive.Status, cold.Status)
		}
		if dive.Status != StatusOptimal {
			return
		}
		if !agree(dive.Objective, cold.Objective) {
			t.Fatalf("branch and bound: dives objective %v, cold %v", dive.Objective, cold.Objective)
		}
		for _, r := range []*MILPResult{dive, cold} {
			if err := CheckFeasible(fuzzModel(data), r.X, 1e-6); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// checkWarmLP solves the LP relaxation of fuzzModel(data), tightens the
// bound of its pick-th basic structural variable past the variable's value
// (down: the upper bound), and checks resolve against a cold solve.
func checkWarmLP(t *testing.T, data []byte, pick int, down bool) {
	m := fuzzModel(data)
	s := new(simplex)
	s.reset(m, buildCSR(m), SimplexOptions{}, nil, nil)
	if st, err := s.run(); err != nil || st != StatusOptimal {
		return
	}
	var basic []int
	for j := 0; j < s.nv; j++ {
		if s.stat[j] == csBasic {
			basic = append(basic, j)
		}
	}
	if len(basic) == 0 {
		return
	}
	j := basic[pick%len(basic)]
	x := s.value(j)
	lb, ub := s.lb[j], s.ub[j]
	if down {
		ub = math.Floor(x)
		if ub > x-1e-6 {
			ub = x - 1
		}
	} else {
		lb = math.Ceil(x)
		if lb < x+1e-6 {
			lb = x + 1
		}
	}
	if lb > ub {
		return // branch and bound drops a child with an empty domain
	}
	wst, ok, err := s.resolve(j, lb, ub)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return
	}
	tight := fuzzModel(data)
	tight.lb[j], tight.ub[j] = lb, ub
	cold, err := SolveLP(tight, SimplexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if wst != cold.Status {
		t.Fatalf("x%d in [%v, %v]: warm %v, cold %v", j, lb, ub, wst, cold.Status)
	}
	if wst != StatusOptimal {
		return
	}
	if obj := s.objective(); !agree(obj, cold.Objective) {
		t.Fatalf("x%d in [%v, %v]: warm objective %v, cold %v", j, lb, ub, obj, cold.Objective)
	}
	if err := CheckFeasible(relaxed(tight), s.solution(), 1e-6); err != nil {
		t.Fatalf("warm LP point: %v", err)
	}
}

// relaxed returns m with every variable continuous, so CheckFeasible
// judges an LP point by the rows and bounds alone.
func relaxed(m *Model) *Model {
	for j := range m.vtype {
		m.vtype[j] = Continuous
	}
	return m
}

// TestDivesMatchColdSearch runs the dive-against-cold comparison on the
// random integer programs the other branch-and-bound tests use, and checks
// that the dives do happen: they must save simplex iterations overall.
func TestDivesMatchColdSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	var diveIters, coldIters int
	for trial := 0; trial < 200; trial++ {
		src := rng.Int63()
		opt := MILPOptions{}.withDefaults()
		dive, err := branchAndBound(randomIntegerModel(src), opt, false)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := branchAndBound(randomIntegerModel(src), opt, true)
		if err != nil {
			t.Fatal(err)
		}
		if dive.Status != cold.Status || (dive.Status == StatusOptimal && !agree(dive.Objective, cold.Objective)) {
			t.Errorf("trial %d: dives %v %v, cold %v %v", trial, dive.Status, dive.Objective, cold.Status, cold.Objective)
		}
		diveIters += dive.Iterations
		coldIters += cold.Iterations
	}
	if diveIters >= coldIters {
		t.Errorf("dives took %d simplex iterations, cold node solves %d", diveIters, coldIters)
	}
}
