package milp

import (
	"math"
	"strings"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", what, got, want, tol)
	}
}

// A classic 2-variable LP with a unique vertex optimum.
//
//	max 3x + 5y  s.t. x <= 4; 2y <= 12; 3x + 2y <= 18; x,y >= 0
//	optimum x=2, y=6, obj=36 (here minimized as -36).
func TestSimplexTextbookLP(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), Continuous, -3)
	y := m.AddVar("y", 0, math.Inf(1), Continuous, -5)
	m.MustAddConstraint("c1", []Term{{x, 1}}, LE, 4)
	m.MustAddConstraint("c2", []Term{{y, 2}}, LE, 12)
	m.MustAddConstraint("c3", []Term{{x, 3}, {y, 2}}, LE, 18)
	res, err := SolveLP(m, SimplexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	approx(t, res.Objective, -36, 1e-7, "objective")
	approx(t, res.X[x], 2, 1e-7, "x")
	approx(t, res.X[y], 6, 1e-7, "y")
}

func TestSimplexEqualityAndGE(t *testing.T) {
	// min x + y  s.t. x + y = 10, x >= 3, y >= 2 -> obj 10.
	m := NewModel()
	x := m.AddVar("x", 3, math.Inf(1), Continuous, 1)
	y := m.AddVar("y", 2, math.Inf(1), Continuous, 1)
	m.MustAddConstraint("sum", []Term{{x, 1}, {y, 1}}, EQ, 10)
	res, err := SolveLP(m, SimplexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	approx(t, res.Objective, 10, 1e-7, "objective")
	approx(t, res.X[x]+res.X[y], 10, 1e-7, "x+y")

	// min x  s.t. x >= 7 via GE row.
	m2 := NewModel()
	x2 := m2.AddVar("x", math.Inf(-1), math.Inf(1), Continuous, 1)
	m2.MustAddConstraint("ge", []Term{{x2, 1}}, GE, 7)
	res2, err := SolveLP(m2, SimplexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != StatusOptimal {
		t.Fatalf("status %v", res2.Status)
	}
	approx(t, res2.Objective, 7, 1e-7, "objective")
}

func TestSimplexFreeVariables(t *testing.T) {
	// min x - 2y  s.t. x + y = 0, -5 <= y <= 5, x free -> x=-5? no:
	// x = -y; obj = -y - 2y = -3y minimized at y=5 -> obj=-15, x=-5.
	m := NewModel()
	x := m.AddVar("x", math.Inf(-1), math.Inf(1), Continuous, 1)
	y := m.AddVar("y", -5, 5, Continuous, -2)
	m.MustAddConstraint("bal", []Term{{x, 1}, {y, 1}}, EQ, 0)
	res, err := SolveLP(m, SimplexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	approx(t, res.Objective, -15, 1e-7, "objective")
	approx(t, res.X[x], -5, 1e-7, "x")
	approx(t, res.X[y], 5, 1e-7, "y")
}

func TestSimplexInfeasible(t *testing.T) {
	// x <= 1 and x >= 3.
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), Continuous, 1)
	m.MustAddConstraint("lo", []Term{{x, 1}}, GE, 3)
	m.MustAddConstraint("hi", []Term{{x, 1}}, LE, 1)
	res, err := SolveLP(m, SimplexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestSimplexInfeasibleEqualities(t *testing.T) {
	// x + y = 1; x + y = 2.
	m := NewModel()
	x := m.AddVar("x", math.Inf(-1), math.Inf(1), Continuous, 0)
	y := m.AddVar("y", math.Inf(-1), math.Inf(1), Continuous, 0)
	m.MustAddConstraint("a", []Term{{x, 1}, {y, 1}}, EQ, 1)
	m.MustAddConstraint("b", []Term{{x, 1}, {y, 1}}, EQ, 2)
	res, err := SolveLP(m, SimplexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	// min -x, x >= 0, no upper limit.
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), Continuous, -1)
	m.MustAddConstraint("weak", []Term{{x, -1}}, LE, 0) // -x <= 0, always true
	res, err := SolveLP(m, SimplexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusUnbounded {
		t.Fatalf("status %v, want unbounded", res.Status)
	}
}

func TestSimplexBoundFlipOnly(t *testing.T) {
	// min -x with 0 <= x <= 9 and a vacuous row: solved by a bound flip.
	m := NewModel()
	x := m.AddVar("x", 0, 9, Continuous, -1)
	y := m.AddVar("y", 0, 1, Continuous, 0)
	m.MustAddConstraint("vac", []Term{{y, 1}}, LE, 5)
	res, err := SolveLP(m, SimplexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	approx(t, res.X[x], 9, 1e-7, "x")
}

func TestSimplexNoConstraints(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", -3, 8, Continuous, 1)
	res, err := SolveLP(m, SimplexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	approx(t, res.X[x], -3, 1e-9, "x")
	approx(t, res.Objective, -3, 1e-9, "obj")
}

func TestSimplexDegenerate(t *testing.T) {
	// Beale's classic cycling example (with Dantzig's rule it can cycle
	// without anti-cycling safeguards).
	m := NewModel()
	inf := math.Inf(1)
	x1 := m.AddVar("x1", 0, inf, Continuous, -0.75)
	x2 := m.AddVar("x2", 0, inf, Continuous, 150)
	x3 := m.AddVar("x3", 0, inf, Continuous, -0.02)
	x4 := m.AddVar("x4", 0, inf, Continuous, 6)
	m.MustAddConstraint("r1", []Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	m.MustAddConstraint("r2", []Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	m.MustAddConstraint("r3", []Term{{x3, 1}}, LE, 1)
	res, err := SolveLP(m, SimplexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	approx(t, res.Objective, -0.05, 1e-7, "objective")
}

func TestSimplexEqualityWithNegativeRHS(t *testing.T) {
	// Rows with negative RHS exercise phase-1 with basics above upper bound.
	m := NewModel()
	x := m.AddVar("x", 0, 100, Continuous, 1)
	y := m.AddVar("y", 0, 100, Continuous, 1)
	m.MustAddConstraint("neg", []Term{{x, -1}, {y, -1}}, EQ, -10)
	res, err := SolveLP(m, SimplexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	approx(t, res.Objective, 10, 1e-7, "objective")
}

func TestSimplexSolutionAlwaysFeasible(t *testing.T) {
	// Every optimal solution reported must pass CheckFeasible.
	models := []*Model{}
	{
		m := NewModel()
		a := m.AddVar("a", 0, 10, Continuous, 2)
		b := m.AddVar("b", -4, 4, Continuous, -3)
		c := m.AddVar("c", math.Inf(-1), math.Inf(1), Continuous, 1)
		m.MustAddConstraint("r1", []Term{{a, 1}, {b, 2}, {c, -1}}, LE, 7)
		m.MustAddConstraint("r2", []Term{{a, -2}, {b, 1}, {c, 3}}, GE, -5)
		m.MustAddConstraint("r3", []Term{{a, 1}, {b, 1}, {c, 1}}, EQ, 3)
		models = append(models, m)
	}
	for i, m := range models {
		res, err := SolveLP(m, SimplexOptions{})
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		if res.Status != StatusOptimal {
			t.Fatalf("model %d: status %v", i, res.Status)
		}
		if err := CheckFeasible(m, res.X, 1e-6); err != nil {
			t.Errorf("model %d: %v", i, err)
		}
	}
}

func TestModelValidate(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 1, 0, Continuous, 0) // reversed
	if err := m.Validate(); err == nil {
		t.Error("reversed bounds should fail validation")
	}
	m.SetBounds(x, 0, 1)
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := m.AddConstraint("bad", []Term{{Var(99), 1}}, LE, 0); err == nil {
		t.Error("unknown variable should fail")
	}
	m.MustAddConstraint("nan", []Term{{x, math.NaN()}}, LE, 0)
	if err := m.Validate(); err == nil {
		t.Error("NaN coefficient should fail validation")
	}
}

func TestModelTermMergingAndString(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, 1, Continuous, 1)
	y := m.AddVar("y", 0, 1, Continuous, -1)
	m.MustAddConstraint("merge", []Term{{x, 1}, {x, 2}, {y, 1}, {y, -1}}, LE, 5)
	c := m.Constraint(0)
	if len(c.Terms) != 1 || c.Terms[0].Var != x || c.Terms[0].Coeff != 3 {
		t.Errorf("merged terms = %+v", c.Terms)
	}
	s := m.String()
	if s == "" {
		t.Error("String() empty")
	}
}

func TestBinaryBoundsClamped(t *testing.T) {
	m := NewModel()
	b := m.AddVar("b", -5, 5, Binary, 1)
	lo, hi := m.Bounds(b)
	if lo != 0 || hi != 1 {
		t.Errorf("binary bounds = [%v, %v], want [0, 1]", lo, hi)
	}
	if m.Type(b) != Binary || m.Name(b) != "b" {
		t.Error("type/name accessors wrong")
	}
}

func TestWriteLP(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x 1", 0, 4, Continuous, -3)
	y := m.AddVar("y", math.Inf(-1), math.Inf(1), Integer, 5)
	b := m.AddVar("", 0, 1, Binary, 1)
	m.MustAddConstraint("c", []Term{{x, 1}, {y, 2}, {b, -1}}, LE, 10)
	m.MustAddConstraint("e", []Term{{y, 1}}, EQ, 3)
	m.MustAddConstraint("g", []Term{{x, -0.5}}, GE, -2)
	var sb strings.Builder
	if err := m.WriteLP(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Minimize", "Subject To", "Bounds", "Generals", "Binaries", "End",
		"x_1", "y free", "<= 10", "= 3", ">= -2", "0 <= x_1 <= 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteLP missing %q:\n%s", want, out)
		}
	}
}

func TestWriteLPNameCollisions(t *testing.T) {
	m := NewModel()
	m.AddVar("a!", 0, 1, Continuous, 1)
	m.AddVar("a?", 0, 1, Continuous, 1)
	m.AddVar("9lives", 0, 1, Continuous, 0)
	var sb strings.Builder
	if err := m.WriteLP(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "a_") || !strings.Contains(out, "a__1") || !strings.Contains(out, "x9lives") {
		t.Errorf("sanitized names wrong:\n%s", out)
	}
}

// TestNodeSolveAllocs is the allocation regression test for the reusable
// kernel: once the simplex state has warmed up, a steady-state node solve
// (reset + run + read the solution) performs zero heap allocations.
func TestNodeSolveAllocs(t *testing.T) {
	m := randomIntegerModel(2024)
	cs := buildCSR(m)
	s := new(simplex)
	x := make([]float64, m.NumVars())
	solveOnce := func() {
		s.reset(m, cs, SimplexOptions{}, nil, nil)
		if st, err := s.run(); err == nil && st == StatusOptimal {
			s.fillSolution(x)
		}
	}
	solveOnce() // warm up the backing arrays
	if allocs := testing.AllocsPerRun(200, solveOnce); allocs > 0 {
		t.Errorf("steady-state node solve allocates %.1f objects/op, want 0", allocs)
	}

	// A dive: the down child of a branch on a fractional basic variable
	// re-optimizes its parent's tableau in place. The root optimum of this
	// model has one.
	m = randomIntegerModel(2028)
	cs = buildCSR(m)
	x = make([]float64, m.NumVars())
	solveOnce()
	branch := -1
	for j := 0; j < m.NumVars(); j++ {
		if s.stat[j] == csBasic && math.Abs(x[j]-math.Round(x[j])) > 1e-6 {
			branch = j
			break
		}
	}
	if branch < 0 {
		t.Fatal("root optimum has no fractional basic variable to branch on")
	}
	down := math.Floor(x[branch])
	diveOnce := func() {
		solveOnce()
		st, ok, err := s.resolve(branch, s.lb[branch], down)
		if err != nil || !ok {
			t.Fatalf("warm re-solve declined: ok %v, err %v", ok, err)
		}
		if st == StatusOptimal {
			s.fillSolution(x)
		}
	}
	diveOnce()
	if allocs := testing.AllocsPerRun(200, diveOnce); allocs > 0 {
		t.Errorf("warm child re-solve allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkNodeSolve measures a steady-state node relaxation on the
// reusable kernel (the inner loop of branch and bound).
func BenchmarkNodeSolve(b *testing.B) {
	m := randomIntegerModel(2024)
	cs := buildCSR(m)
	s := new(simplex)
	x := make([]float64, m.NumVars())
	s.reset(m, cs, SimplexOptions{}, nil, nil)
	if _, err := s.run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.reset(m, cs, SimplexOptions{}, nil, nil)
		if _, err := s.run(); err != nil {
			b.Fatal(err)
		}
		s.fillSolution(x)
	}
}
