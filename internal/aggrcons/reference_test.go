package aggrcons

import (
	"slices"
	"sort"

	"dart/internal/relational"
)

// This file keeps GroundAll and Check as they were before one Grounding
// served a whole pass: GroundAll with a map substitution, a fresh bound
// slice per tuple and every key formatted before the duplicate check,
// Check grounding and evaluating constraint by constraint, each call by
// scanning its relation, and sorting by Ground.Key. The equivalence tests
// compare the package against them.

// RefGroundAll is the reference GroundAll.
func RefGroundAll(k *Constraint, db *relational.Database) ([]*Ground, error) {
	if err := k.Validate(db); err != nil {
		return nil, err
	}
	var out []*Ground
	seen := map[string]bool{}
	binding := map[string]relational.Value{}

	args := make([][]relational.Value, len(k.Calls))
	for i, call := range k.Calls {
		args[i] = make([]relational.Value, len(call.Args))
	}
	var key []byte
	emit := func() {
		for i, call := range k.Calls {
			for j, a := range call.Args {
				if name, ok := a.IsVar(); ok {
					args[i][j] = binding[name]
				} else {
					args[i][j] = a.val
				}
			}
		}
		key = appendGroundKey(key[:0], k.Name, args)
		if seen[string(key)] {
			return
		}
		seen[string(key)] = true
		g := &Ground{Source: k, Args: make([][]relational.Value, len(k.Calls))}
		for i := range args {
			g.Args[i] = slices.Clone(args[i])
		}
		out = append(out, g)
	}

	var match func(atomIdx int)
	match = func(atomIdx int) {
		if atomIdx == len(k.Body) {
			emit()
			return
		}
		atom := k.Body[atomIdx]
		rel := db.Relation(atom.Relation)
		for _, t := range rel.Tuples() {
			var bound []string
			ok := true
			for i, a := range atom.Args {
				switch a.kind {
				case argWildcard:
					continue
				case argConst:
					if !a.val.Equal(t.At(i)) {
						ok = false
					}
				case argVar:
					if prev, has := binding[a.name]; has {
						if !prev.Equal(t.At(i)) {
							ok = false
						}
					} else {
						binding[a.name] = t.At(i)
						bound = append(bound, a.name)
					}
				}
				if !ok {
					break
				}
			}
			if ok {
				match(atomIdx + 1)
			}
			for _, name := range bound {
				delete(binding, name)
			}
		}
	}
	match(0)
	return out, nil
}

// RefCheck is the reference Check.
func RefCheck(db *relational.Database, acs []*Constraint, eps float64) ([]Violation, error) {
	var out []Violation
	for _, k := range acs {
		grounds, err := RefGroundAll(k, db)
		if err != nil {
			return nil, err
		}
		for _, g := range grounds {
			lhs := 0.0
			for i, call := range k.Calls {
				v, err := call.Func.Eval(db, g.Args[i])
				if err != nil {
					return nil, err
				}
				lhs += call.Coeff * v
			}
			if !g.satisfiedBy(lhs, eps) {
				out = append(out, Violation{Ground: g, LHS: lhs})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ground.Key() < out[j].Ground.Key() })
	return out, nil
}
