package milp

import (
	"math"
	"math/rand"
	"testing"
)

func TestMILPKnapsack(t *testing.T) {
	// max 8a + 11b + 6c + 4d  s.t. 5a + 7b + 4c + 3d <= 14, binary.
	// Optimum: a=b=c=1 (weight 16? no: 5+7+4=16 > 14). Recheck:
	// feasible best is b+c+d = 11+6+4 = 21 at weight 14.
	m := NewModel()
	a := m.AddVar("a", 0, 1, Binary, -8)
	b := m.AddVar("b", 0, 1, Binary, -11)
	c := m.AddVar("c", 0, 1, Binary, -6)
	d := m.AddVar("d", 0, 1, Binary, -4)
	m.MustAddConstraint("w", []Term{{a, 5}, {b, 7}, {c, 4}, {d, 3}}, LE, 14)
	res, err := Solve(m, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	approx(t, res.Objective, -21, 1e-6, "objective")
	approx(t, res.X[b], 1, 1e-6, "b")
	approx(t, res.X[c], 1, 1e-6, "c")
	approx(t, res.X[d], 1, 1e-6, "d")
	approx(t, res.X[a], 0, 1e-6, "a")
}

func TestMILPIntegerRounding(t *testing.T) {
	// max x + y s.t. 2x + 3y <= 12, 3x + 2y <= 12, x,y integer >= 0.
	// LP optimum (2.4, 2.4); ILP optimum 4 at e.g. (2,2) (value 4) or (3,1)?
	// (3,1): 2*3+3=9 ok, 3*3+2=11 ok, sum 4. (2,2): 10,10 ok sum 4. ILP obj 4.
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), Integer, -1)
	y := m.AddVar("y", 0, math.Inf(1), Integer, -1)
	m.MustAddConstraint("c1", []Term{{x, 2}, {y, 3}}, LE, 12)
	m.MustAddConstraint("c2", []Term{{x, 3}, {y, 2}}, LE, 12)
	res, err := Solve(m, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	approx(t, res.Objective, -4, 1e-6, "objective")
	if err := CheckFeasible(m, res.X, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestMILPInfeasible(t *testing.T) {
	// 2x = 1 with x integer is infeasible.
	m := NewModel()
	x := m.AddVar("x", -10, 10, Integer, 0)
	m.MustAddConstraint("odd", []Term{{x, 2}}, EQ, 1)
	res, err := Solve(m, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestMILPPureLPDispatch(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, 5, Continuous, -1)
	res, err := Solve(m, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || res.Nodes != 1 {
		t.Fatalf("status %v nodes %d", res.Status, res.Nodes)
	}
	approx(t, res.X[x], 5, 1e-9, "x")
}

func TestMILPMixed(t *testing.T) {
	// min y s.t. y >= x - 2.5, y >= 2.5 - x, x integer in [0,5], y real.
	// Best integer x is 2 or 3 -> y = 0.5.
	m := NewModel()
	x := m.AddVar("x", 0, 5, Integer, 0)
	y := m.AddVar("y", 0, math.Inf(1), Continuous, 1)
	m.MustAddConstraint("a", []Term{{y, 1}, {x, -1}}, GE, -2.5)
	m.MustAddConstraint("b", []Term{{y, 1}, {x, 1}}, GE, 2.5)
	res, err := Solve(m, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	approx(t, res.Objective, 0.5, 1e-6, "objective")
}

func TestMILPBigMIndicator(t *testing.T) {
	// The shape of the paper's S*(AC): minimize number of deltas subject to
	// y constrained by big-M indicator rows. One equality forces y1+y2 = 30,
	// so at least one delta must be 1.
	const M = 1e6
	m := NewModel()
	y1 := m.AddVar("y1", -M, M, Continuous, 0)
	y2 := m.AddVar("y2", -M, M, Continuous, 0)
	d1 := m.AddVar("d1", 0, 1, Binary, 1)
	d2 := m.AddVar("d2", 0, 1, Binary, 1)
	m.MustAddConstraint("eq", []Term{{y1, 1}, {y2, 1}}, EQ, 30)
	m.MustAddConstraint("u1", []Term{{y1, 1}, {d1, -M}}, LE, 0)
	m.MustAddConstraint("l1", []Term{{y1, -1}, {d1, -M}}, LE, 0)
	m.MustAddConstraint("u2", []Term{{y2, 1}, {d2, -M}}, LE, 0)
	m.MustAddConstraint("l2", []Term{{y2, -1}, {d2, -M}}, LE, 0)
	res, err := Solve(m, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	approx(t, res.Objective, 1, 1e-5, "objective")
}

func TestMILPUnboundedRoot(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), Integer, -1)
	m.MustAddConstraint("weak", []Term{{x, -1}}, LE, 0)
	res, err := Solve(m, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusUnbounded {
		t.Fatalf("status %v, want unbounded", res.Status)
	}
}

// bruteForceILP enumerates all integral assignments of a small model whose
// integer variables have finite bounds, returning the best objective or
// +Inf when infeasible.
func bruteForceILP(m *Model, tol float64) float64 {
	n := m.NumVars()
	x := make([]float64, n)
	best := math.Inf(1)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			if CheckFeasible(m, x, tol) == nil {
				obj := 0.0
				for i := range x {
					obj += m.obj[i] * x[i]
				}
				if obj < best {
					best = obj
				}
			}
			return
		}
		lo, hi := int(m.lb[j]), int(m.ub[j])
		for v := lo; v <= hi; v++ {
			x[j] = float64(v)
			rec(j + 1)
		}
	}
	rec(0)
	return best
}

func TestMILPMatchesBruteForceRandom(t *testing.T) {
	// Property: on random small pure-integer programs, branch and bound
	// agrees with exhaustive enumeration.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		m := NewModel()
		nv := 2 + rng.Intn(3)
		for j := 0; j < nv; j++ {
			m.AddVar("x", 0, float64(2+rng.Intn(3)), Integer, float64(rng.Intn(11)-5))
		}
		nc := 1 + rng.Intn(3)
		for i := 0; i < nc; i++ {
			terms := make([]Term, nv)
			for j := 0; j < nv; j++ {
				terms[j] = Term{Var(j), float64(rng.Intn(7) - 3)}
			}
			rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
			rhs := float64(rng.Intn(15) - 5)
			m.MustAddConstraint("c", terms, rel, rhs)
		}
		want := bruteForceILP(m, 1e-9)
		res, err := Solve(m, MILPOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.IsInf(want, 1) {
			if res.Status != StatusInfeasible {
				t.Errorf("trial %d: solver says %v (obj %v), brute force says infeasible\n%s",
					trial, res.Status, res.Objective, m)
			}
			continue
		}
		if res.Status != StatusOptimal {
			t.Errorf("trial %d: solver says %v, brute force optimum %v\n%s", trial, res.Status, want, m)
			continue
		}
		if math.Abs(res.Objective-want) > 1e-6 {
			t.Errorf("trial %d: solver obj %v, brute force %v\n%s", trial, res.Objective, want, m)
		}
		if err := CheckFeasible(m, res.X, 1e-6); err != nil {
			t.Errorf("trial %d: reported solution infeasible: %v", trial, err)
		}
	}
}

func TestLPFeasibleRegionSamplingProperty(t *testing.T) {
	// Property: for random LPs that have a feasible sampled point, the
	// simplex must not report infeasible, and its optimum must not exceed
	// the sampled point's objective.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 80; trial++ {
		m := NewModel()
		nv := 2 + rng.Intn(4)
		sample := make([]float64, nv)
		for j := 0; j < nv; j++ {
			lo := float64(rng.Intn(5) - 6)
			hi := lo + float64(1+rng.Intn(10))
			m.AddVar("x", lo, hi, Continuous, rng.NormFloat64())
			sample[j] = lo + rng.Float64()*(hi-lo)
		}
		// Build constraints that the sampled point satisfies by construction.
		for i := 0; i < 1+rng.Intn(4); i++ {
			terms := make([]Term, nv)
			act := 0.0
			for j := 0; j < nv; j++ {
				c := rng.NormFloat64()
				terms[j] = Term{Var(j), c}
				act += c * sample[j]
			}
			if rng.Intn(2) == 0 {
				m.MustAddConstraint("le", terms, LE, act+rng.Float64())
			} else {
				m.MustAddConstraint("ge", terms, GE, act-rng.Float64())
			}
		}
		res, err := SolveLP(m, SimplexOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Status != StatusOptimal {
			t.Errorf("trial %d: status %v for a feasible LP", trial, res.Status)
			continue
		}
		sampleObj := 0.0
		for j := range sample {
			sampleObj += m.obj[j] * sample[j]
		}
		if res.Objective > sampleObj+1e-6 {
			t.Errorf("trial %d: optimum %v worse than known feasible %v", trial, res.Objective, sampleObj)
		}
		if err := CheckFeasible(m, res.X, 1e-6); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestCheckFeasibleReportsViolations(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, 1, Integer, 0)
	m.MustAddConstraint("eq", []Term{{x, 1}}, EQ, 1)
	if err := CheckFeasible(m, []float64{0}, 1e-9); err == nil {
		t.Error("violated equality not reported")
	}
	if err := CheckFeasible(m, []float64{0.5}, 1e-9); err == nil {
		t.Error("fractional integer not reported")
	}
	if err := CheckFeasible(m, []float64{2}, 1e-9); err == nil {
		t.Error("bound violation not reported")
	}
	if err := CheckFeasible(m, []float64{1, 2}, 1e-9); err == nil {
		t.Error("length mismatch not reported")
	}
	if err := CheckFeasible(m, []float64{1}, 1e-9); err != nil {
		t.Errorf("feasible point rejected: %v", err)
	}
}

func TestStatusAndTypeStrings(t *testing.T) {
	for s, want := range map[Status]string{
		StatusOptimal: "optimal", StatusInfeasible: "infeasible",
		StatusUnbounded: "unbounded", StatusIterLimit: "iteration-limit",
	} {
		if s.String() != want {
			t.Errorf("Status %d String = %q", s, s.String())
		}
	}
	for v, want := range map[VarType]string{
		Continuous: "continuous", Integer: "integer", Binary: "binary",
	} {
		if v.String() != want {
			t.Errorf("VarType %d String = %q", v, v.String())
		}
	}
	for r, want := range map[Rel]string{LE: "<=", GE: ">=", EQ: "="} {
		if r.String() != want {
			t.Errorf("Rel %d String = %q", r, r.String())
		}
	}
}

// bruteForceMixed enumerates all integral assignments of the integer
// variables (finite bounds required) and solves the continuous remainder
// as an LP, returning the best objective or +Inf.
func bruteForceMixed(t *testing.T, m *Model) float64 {
	t.Helper()
	var intVars []Var
	for j := 0; j < m.NumVars(); j++ {
		if m.Type(Var(j)) != Continuous {
			intVars = append(intVars, Var(j))
		}
	}
	best := math.Inf(1)
	lb := make([]float64, m.NumVars())
	ub := make([]float64, m.NumVars())
	for j := range lb {
		lb[j], ub[j] = m.Bounds(Var(j))
	}
	var rec func(k int)
	rec = func(k int) {
		if k == len(intVars) {
			lp, err := solveLPWithBounds(m, buildCSR(m), SimplexOptions{}, lb, ub)
			if err != nil {
				t.Fatal(err)
			}
			if lp.Status == StatusOptimal && lp.Objective < best {
				best = lp.Objective
			}
			return
		}
		v := intVars[k]
		l, u := m.Bounds(v)
		for x := int(math.Ceil(l)); x <= int(math.Floor(u)); x++ {
			lb[v], ub[v] = float64(x), float64(x)
			rec(k + 1)
		}
		lb[v], ub[v] = l, u
	}
	rec(0)
	return best
}

func TestMILPMixedMatchesBruteForce(t *testing.T) {
	// Random mixed-integer programs: branch and bound must match exhaustive
	// enumeration of the integer lattice with LP subsolves.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		m := NewModel()
		nInt := 1 + rng.Intn(2)
		nCont := 1 + rng.Intn(2)
		for j := 0; j < nInt; j++ {
			m.AddVar("i", 0, float64(2+rng.Intn(2)), Integer, float64(rng.Intn(9)-4))
		}
		for j := 0; j < nCont; j++ {
			m.AddVar("c", -3, 5, Continuous, float64(rng.Intn(9)-4)/2)
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			terms := make([]Term, m.NumVars())
			for j := range terms {
				terms[j] = Term{Var(j), float64(rng.Intn(7) - 3)}
			}
			rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
			m.MustAddConstraint("c", terms, rel, float64(rng.Intn(13)-4))
		}
		want := bruteForceMixed(t, m)
		res, err := Solve(m, MILPOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.IsInf(want, 1) {
			if res.Status != StatusInfeasible {
				t.Errorf("trial %d: got %v (obj %v), brute force infeasible\n%s", trial, res.Status, res.Objective, m)
			}
			continue
		}
		if res.Status != StatusOptimal {
			t.Errorf("trial %d: status %v, brute force %v\n%s", trial, res.Status, want, m)
			continue
		}
		if math.Abs(res.Objective-want) > 1e-5 {
			t.Errorf("trial %d: obj %v, brute force %v\n%s", trial, res.Objective, want, m)
		}
	}
}

// randomIntegerModel builds a reproducible random integer program with
// integral objective coefficients.
func randomIntegerModel(src int64) *Model {
	r := rand.New(rand.NewSource(src))
	m := NewModel()
	nv := 3 + r.Intn(4)
	for j := 0; j < nv; j++ {
		m.AddVar("x", 0, float64(1+r.Intn(4)), Integer, float64(r.Intn(13)-6))
	}
	nc := 2 + r.Intn(3)
	for i := 0; i < nc; i++ {
		terms := make([]Term, nv)
		for j := 0; j < nv; j++ {
			terms[j] = Term{Var(j), float64(r.Intn(9) - 4)}
		}
		rel := []Rel{LE, GE, EQ}[r.Intn(3)]
		m.MustAddConstraint("c", terms, rel, float64(r.Intn(19)-6))
	}
	return m
}

// sameResult asserts two solves agree bit for bit on status and, when
// optimal, on objective and solution.
func sameResult(t *testing.T, label string, a, b *MILPResult) {
	t.Helper()
	if a.Status != b.Status {
		t.Errorf("%s: status %v vs %v", label, a.Status, b.Status)
		return
	}
	if a.Status != StatusOptimal {
		return
	}
	//dartvet:allow floatcmp -- the reproducibility guarantee is bit-identical objectives, so the test compares exactly
	if a.Objective != b.Objective {
		t.Errorf("%s: objective %v vs %v", label, a.Objective, b.Objective)
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: len(X) %d vs %d", label, len(a.X), len(b.X))
	}
	for j := range a.X {
		//dartvet:allow floatcmp -- the reproducibility guarantee is bit-identical solutions, so the test compares exactly
		if a.X[j] != b.X[j] {
			t.Errorf("%s: X[%d] = %v vs %v", label, j, a.X[j], b.X[j])
		}
	}
}

// TestSolveReproducible: two default-option solves of the same model
// return identical node and iteration counts and the identical solution.
func TestSolveReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 60; trial++ {
		src := rng.Int63()
		first, err := Solve(randomIntegerModel(src), MILPOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		again, err := Solve(randomIntegerModel(src), MILPOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameResult(t, "rerun", first, again)
		if first.Nodes != again.Nodes || first.Iterations != again.Iterations {
			t.Errorf("trial %d: nodes/iterations %d/%d, then %d/%d",
				trial, first.Nodes, first.Iterations, again.Nodes, again.Iterations)
		}
	}
}

// TestParallelUnboundedAndInfeasible: an unbounded and an infeasible
// integer program report their statuses from branch and bound.
func TestParallelUnboundedAndInfeasible(t *testing.T) {
	unb := NewModel()
	x := unb.AddVar("x", 0, math.Inf(1), Integer, -1)
	y := unb.AddVar("y", 0, 1, Binary, 0)
	unb.MustAddConstraint("c", []Term{{x, -1}, {y, 1}}, LE, 0)
	res, err := Solve(unb, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusUnbounded {
		t.Errorf("unbounded model: status %v", res.Status)
	}

	inf := NewModel()
	a := inf.AddVar("a", 0, 1, Binary, 1)
	b := inf.AddVar("b", 0, 1, Binary, 1)
	inf.MustAddConstraint("c", []Term{{a, 1}, {b, 1}}, GE, 3)
	res, err = Solve(inf, MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Errorf("infeasible model: status %v", res.Status)
	}
}
