package aggrcons

import (
	"sort"

	"dart/internal/relational"
)

// Grounding is the ground set of a constraint set on one database: each
// constraint's distinct grounds in GroundAll order, with T_chi of every
// aggregation call of every ground. For a steady constraint (Definition 6)
// neither depends on measure values, so one Grounding serves the
// consistency check, the translation into linear rows and the check of any
// repair, which changes measure values only.
//
// A Grounding is read-only once built. It holds the database's tuples, not
// their values: Violations reads the values when it is called.
type Grounding struct {
	db   *relational.Database
	acs  []*Constraint
	sets []groundSet // parallel to acs
}

// groundSet is the grounding of one constraint.
type groundSet struct {
	grounds []*Ground
	keys    []string // deduplication key of each ground
	// tuples holds T_chi of call ci of ground gi at gi*len(Calls)+ci.
	tuples [][]*relational.Tuple
}

// NewGrounding validates every constraint against db, then grounds each
// one and collects T_chi of every call through one Evaluator.
func NewGrounding(db *relational.Database, acs []*Constraint) (*Grounding, error) {
	for _, k := range acs {
		if err := k.Validate(db); err != nil {
			return nil, err
		}
	}
	g := &Grounding{db: db, acs: acs, sets: make([]groundSet, len(acs))}
	ev := NewEvaluator(db)
	for ki, k := range acs {
		grounds, keys := k.groundAll(db)
		tuples := make([][]*relational.Tuple, 0, len(grounds)*len(k.Calls))
		for _, gr := range grounds {
			for ci, call := range k.Calls {
				ts, err := ev.Tuples(call.Func, gr.Args[ci])
				if err != nil {
					return nil, err
				}
				tuples = append(tuples, ts)
			}
		}
		g.sets[ki] = groundSet{grounds: grounds, keys: keys, tuples: tuples}
	}
	return g, nil
}

// Database returns the database the grounding was built on.
func (g *Grounding) Database() *relational.Database { return g.db }

// Constraints returns the grounded constraint set.
func (g *Grounding) Constraints() []*Constraint { return g.acs }

// Grounds returns the grounds of constraint ki, in GroundAll order.
// Callers must not mutate them.
func (g *Grounding) Grounds(ki int) []*Ground { return g.sets[ki].grounds }

// Tuples returns T_chi of call ci of ground gi of constraint ki, in
// relation order. Callers must not mutate it.
func (g *Grounding) Tuples(ki, gi, ci int) []*relational.Tuple {
	return g.sets[ki].tuples[gi*len(g.acs[ki].Calls)+ci]
}

// Violations returns the grounds that do not hold within eps on the
// database's current values, ordered by ground key. Each left-hand side
// sums the calls in order, each call over T_chi in relation order, as
// Evaluator.LHS does.
func (g *Grounding) Violations(eps float64) ([]Violation, error) {
	var out byKey
	for ki, k := range g.acs {
		set := &g.sets[ki]
		for gi, gr := range set.grounds {
			lhs := 0.0
			for ci, call := range k.Calls {
				v, err := call.Func.sum(g.Tuples(ki, gi, ci))
				if err != nil {
					return nil, err
				}
				lhs += call.Coeff * v
			}
			if !gr.satisfiedBy(lhs, eps) {
				out.viols = append(out.viols, Violation{Ground: gr, LHS: lhs})
				out.keys = append(out.keys, set.keys[gi])
			}
		}
	}
	// Deterministic order for reporting.
	sort.Sort(out)
	return out.viols, nil
}

// byKey sorts violations by their grounds' keys.
type byKey struct {
	viols []Violation
	keys  []string
}

func (b byKey) Len() int           { return len(b.viols) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.viols[i], b.viols[j] = b.viols[j], b.viols[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}
