package milp

import (
	"math"
	"math/rand"
	"testing"
)

// TestCutoffObjectivePreservesOptimum checks the exactness guarantee of the
// warm-start cutoff: declaring the known optimum as CutoffObjective must
// return the same optimum a cold solve finds, with no more nodes.
func TestCutoffObjectivePreservesOptimum(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		a := m.AddVar("a", 0, 1, Binary, -8)
		b := m.AddVar("b", 0, 1, Binary, -11)
		c := m.AddVar("c", 0, 1, Binary, -6)
		d := m.AddVar("d", 0, 1, Binary, -4)
		m.MustAddConstraint("w", []Term{{a, 5}, {b, 7}, {c, 4}, {d, 3}}, LE, 14)
		return m
	}
	cold, err := Solve(build(), MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != StatusOptimal {
		t.Fatalf("cold status %v", cold.Status)
	}
	cutoff := cold.Objective
	warm, err := Solve(build(), MILPOptions{CutoffObjective: &cutoff})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusOptimal {
		t.Fatalf("warm status %v", warm.Status)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Errorf("warm objective %v, cold %v", warm.Objective, cold.Objective)
	}
	if warm.Nodes > cold.Nodes {
		t.Errorf("cutoff explored more nodes (%d) than cold solve (%d)", warm.Nodes, cold.Nodes)
	}
	if err := CheckFeasible(build(), warm.X, 1e-6); err != nil {
		t.Error(err)
	}
}

// TestCutoffObjectiveRandomAgreement re-runs the brute-force property test
// with the cold optimum fed back as the cutoff: on every random integer
// program, the cutoff solve must reproduce the optimal objective exactly.
func TestCutoffObjectiveRandomAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		build := func(src int64) *Model {
			r := rand.New(rand.NewSource(src))
			m := NewModel()
			nv := 2 + r.Intn(3)
			for j := 0; j < nv; j++ {
				m.AddVar("x", 0, float64(2+r.Intn(3)), Integer, float64(r.Intn(11)-5))
			}
			nc := 1 + r.Intn(3)
			for i := 0; i < nc; i++ {
				terms := make([]Term, nv)
				for j := 0; j < nv; j++ {
					terms[j] = Term{Var(j), float64(r.Intn(7) - 3)}
				}
				rel := []Rel{LE, GE, EQ}[r.Intn(3)]
				m.MustAddConstraint("c", terms, rel, float64(r.Intn(15)-5))
			}
			return m
		}
		src := rng.Int63()
		cold, err := Solve(build(src), MILPOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if cold.Status != StatusOptimal {
			continue // infeasible/unbounded instances have no cutoff to test
		}
		cutoff := cold.Objective
		warm, err := Solve(build(src), MILPOptions{CutoffObjective: &cutoff})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if warm.Status != StatusOptimal {
			t.Errorf("trial %d: warm status %v, cold optimal %v", trial, warm.Status, cold.Objective)
			continue
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
			t.Errorf("trial %d: warm objective %v, cold %v", trial, warm.Objective, cold.Objective)
		}
		if err := CheckFeasible(build(src), warm.X, 1e-6); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

// TestCutoffIgnoredForNonIntegralObjective guards the integrality gate: on a
// model whose objective is not provably integral, even an aggressive (wrong)
// cutoff must not change the optimum, because it is ignored.
func TestCutoffIgnoredForNonIntegralObjective(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		x := m.AddVar("x", 0, 4, Integer, -1.5) // fractional coefficient
		y := m.AddVar("y", 0, 4, Integer, -1)
		m.MustAddConstraint("c", []Term{{x, 1}, {y, 1}}, LE, 5)
		return m
	}
	cold, err := Solve(build(), MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != StatusOptimal {
		t.Fatalf("cold status %v", cold.Status)
	}
	// A cutoff far below the optimum would prune the whole tree if applied.
	bogus := cold.Objective - 100
	warm, err := Solve(build(), MILPOptions{CutoffObjective: &bogus})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusOptimal || math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Errorf("non-integral objective: warm %v/%v, cold %v/%v",
			warm.Status, warm.Objective, cold.Status, cold.Objective)
	}
}

// TestParallelCutoffAgreement: on random integer programs, feeding the cold
// optimum back as the cutoff reproduces the cold solve's status, objective
// and solution bit for bit.
func TestParallelCutoffAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		src := rng.Int63()
		cold, err := Solve(randomIntegerModel(src), MILPOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if cold.Status != StatusOptimal {
			continue
		}
		cutoff := cold.Objective
		warm, err := Solve(randomIntegerModel(src), MILPOptions{CutoffObjective: &cutoff})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameResult(t, "cutoff", cold, warm)
	}
}
