package aggrcons

import (
	"fmt"
	"hash/maphash"
	"strings"

	"dart/internal/relational"
)

// Rel is the relation between the aggregate combination and the constant K.
// The paper's Definition 1 uses <=, and treats equality as sugar for a pair
// of inequalities; we represent =, <= and >= directly.
type Rel int

// The constraint relations.
const (
	LE Rel = iota
	GE
	EQ
)

// String returns the relation symbol.
func (r Rel) String() string {
	return [...]string{"<=", ">=", "="}[r]
}

// ArgTerm is an argument of a body atom or of an aggregation-function call:
// a constraint variable, a constant, or the '_' wildcard of the paper's
// shorthand notation (wildcards are only legal in body atoms).
type ArgTerm struct {
	kind argKind
	name string
	val  relational.Value
}

type argKind int

const (
	argVar argKind = iota
	argConst
	argWildcard
)

// VarArg is a constraint variable with the given name.
func VarArg(name string) ArgTerm { return ArgTerm{kind: argVar, name: name} }

// ConstArg is a constant argument.
func ConstArg(v relational.Value) ArgTerm { return ArgTerm{kind: argConst, val: v} }

// Wildcard is the '_' placeholder.
func Wildcard() ArgTerm { return ArgTerm{kind: argWildcard} }

// IsVar reports whether the term is a variable, returning its name.
func (a ArgTerm) IsVar() (string, bool) { return a.name, a.kind == argVar }

// String renders the term in the paper's shorthand notation.
func (a ArgTerm) String() string {
	switch a.kind {
	case argVar:
		return a.name
	case argWildcard:
		return "_"
	default:
		if a.val.Kind() == relational.DomainString {
			return "'" + a.val.String() + "'"
		}
		return a.val.String()
	}
}

// Atom is one conjunct R(a1, ..., an) of the body phi.
type Atom struct {
	Relation string
	Args     []ArgTerm
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Relation + "(" + strings.Join(parts, ", ") + ")"
}

// AggCall is one summand c * chi(args) of a constraint's right-hand side.
type AggCall struct {
	Coeff float64
	Func  *AggFunc
	Args  []ArgTerm
}

// String renders the call (omitting a unit coefficient).
func (c AggCall) String() string {
	parts := make([]string, len(c.Args))
	for i, t := range c.Args {
		parts[i] = t.String()
	}
	call := fmt.Sprintf("%s(%s)", c.Func.Name, strings.Join(parts, ", "))
	switch c.Coeff {
	case 1:
		return call
	case -1:
		return "-" + call
	default:
		return fmt.Sprintf("%g*%s", c.Coeff, call)
	}
}

// Constraint is an aggregate constraint (Definition 1):
//
//	forall vars ( Body  =>  sum_i Calls_i  Rel  K )
type Constraint struct {
	Name  string
	Body  []Atom
	Calls []AggCall
	Rel   Rel
	K     float64
}

// Validate checks the constraint against the database's schemas: atom
// arities, aggregation-function arities, wildcard placement, and that every
// variable used in a call also occurs in the body (Definition 1 requires
// call variables to be a subset of the quantified variables).
func (k *Constraint) Validate(db *relational.Database) error {
	bodyVars := map[string]bool{}
	for _, atom := range k.Body {
		r := db.Relation(atom.Relation)
		if r == nil {
			return fmt.Errorf("aggrcons: constraint %s: unknown relation %q", k.Name, atom.Relation)
		}
		if len(atom.Args) != r.Schema().Arity() {
			return fmt.Errorf("aggrcons: constraint %s: atom %s has %d args, scheme has arity %d",
				k.Name, atom, len(atom.Args), r.Schema().Arity())
		}
		for _, a := range atom.Args {
			if name, ok := a.IsVar(); ok {
				bodyVars[name] = true
			}
		}
	}
	for _, call := range k.Calls {
		if call.Func == nil {
			return fmt.Errorf("aggrcons: constraint %s: nil aggregation function", k.Name)
		}
		if len(call.Args) != call.Func.Arity() {
			return fmt.Errorf("aggrcons: constraint %s: %s expects %d args, got %d",
				k.Name, call.Func.Name, call.Func.Arity(), len(call.Args))
		}
		if db.Relation(call.Func.Relation) == nil {
			return fmt.Errorf("aggrcons: constraint %s: %s aggregates over unknown relation %q",
				k.Name, call.Func.Name, call.Func.Relation)
		}
		for _, a := range call.Args {
			if a.kind == argWildcard {
				return fmt.Errorf("aggrcons: constraint %s: wildcard in aggregation call %s", k.Name, call.Func.Name)
			}
			if name, ok := a.IsVar(); ok && !bodyVars[name] {
				return fmt.Errorf("aggrcons: constraint %s: call variable %q does not occur in the body", k.Name, name)
			}
		}
	}
	return nil
}

// String renders the constraint in the paper's shorthand notation.
func (k *Constraint) String() string {
	bodyParts := make([]string, len(k.Body))
	for i, a := range k.Body {
		bodyParts[i] = a.String()
	}
	var rhs strings.Builder
	for i, c := range k.Calls {
		s := c.String()
		if i > 0 && !strings.HasPrefix(s, "-") {
			rhs.WriteString(" + ")
		} else if i > 0 {
			rhs.WriteString(" - ")
			s = s[1:]
		}
		rhs.WriteString(s)
	}
	return fmt.Sprintf("%s ==> %s %s %g", strings.Join(bodyParts, ", "), rhs.String(), k.Rel, k.K)
}

// Ground is one ground instantiation of a constraint: the inequality
// sum_i Coeff_i * Func_i(Args_i) Rel K with all arguments ground.
type Ground struct {
	Source *Constraint
	// Args holds the resolved argument values for each call, parallel to
	// Source.Calls.
	Args [][]relational.Value
}

// Key returns a canonical identity for deduplication of ground constraints.
func (g *Ground) Key() string {
	return string(appendGroundKey(nil, g.Source.Name, g.Args))
}

// appendGroundKey appends the Key of the ground of the named constraint
// with the given call arguments.
func appendGroundKey(dst []byte, name string, args [][]relational.Value) []byte {
	dst = append(dst, name...)
	for _, callArgs := range args {
		dst = append(dst, '|')
		for _, v := range callArgs {
			dst = v.Append(dst)
			dst = append(dst, ';', byte('0'+int(v.Kind())))
		}
	}
	return dst
}

// LHS evaluates the left-hand side sum of the ground constraint on db.
func (g *Ground) LHS(db *relational.Database) (float64, error) {
	return NewEvaluator(db).LHS(g)
}

// Holds checks whether the ground constraint is satisfied on db within eps.
func (g *Ground) Holds(db *relational.Database, eps float64) (bool, error) {
	lhs, err := g.LHS(db)
	if err != nil {
		return false, err
	}
	return g.satisfiedBy(lhs, eps), nil
}

// satisfiedBy reports whether a left-hand side value satisfies the ground
// constraint within eps.
func (g *Ground) satisfiedBy(lhs, eps float64) bool {
	switch g.Source.Rel {
	case LE:
		return lhs <= g.Source.K+eps
	case GE:
		return lhs >= g.Source.K-eps
	default:
		d := lhs - g.Source.K
		return d <= eps && d >= -eps
	}
}

// String renders the ground inequality.
func (g *Ground) String() string {
	parts := make([]string, 0, len(g.Source.Calls))
	for i, call := range g.Source.Calls {
		argStrs := make([]string, len(g.Args[i]))
		for j, v := range g.Args[i] {
			if v.Kind() == relational.DomainString {
				argStrs[j] = "'" + v.String() + "'"
			} else {
				argStrs[j] = v.String()
			}
		}
		s := fmt.Sprintf("%s(%s)", call.Func.Name, strings.Join(argStrs, ","))
		switch {
		case call.Coeff == 1:
		case call.Coeff == -1:
			s = "-" + s
		default:
			s = fmt.Sprintf("%g*%s", call.Coeff, s)
		}
		parts = append(parts, s)
	}
	lhs := parts[0]
	for _, p := range parts[1:] {
		if strings.HasPrefix(p, "-") {
			lhs += " - " + p[1:]
		} else {
			lhs += " + " + p
		}
	}
	return fmt.Sprintf("%s %s %g", lhs, g.Source.Rel, g.Source.K)
}

// GroundAll computes the distinct ground instantiations of the constraint on
// db: one Ground per ground substitution theta making the body true, with
// duplicates (substitutions agreeing on every call argument) merged.
func (k *Constraint) GroundAll(db *relational.Database) ([]*Ground, error) {
	if err := k.Validate(db); err != nil {
		return nil, err
	}
	grounds, _ := k.groundAll(db)
	return grounds, nil
}

// groundAll is GroundAll on a validated constraint that also returns each
// ground's deduplication key, built from the substitution before the
// Ground is allocated.
//
// The key depends only on the values of the variables that occur in some
// call, the relevant ones, so a substitution whose relevant values are
// those of an earlier ground, in kind and in bits (or string content), is
// that ground's duplicate and is dropped before its key is formatted. The
// prefilter compares the relevant values' AppendIdentity encodings, found
// through their hash. It never calls two substitutions duplicates that the
// key tells apart: -0 and +0, or Int 2 and Real 2, differ in bits or kind.
// A substitution it misses, such as one with a NaN of other bits, or
// strings whose keys collide, is settled by its key.
func (k *Constraint) groundAll(db *relational.Database) ([]*Ground, []string) {
	// Number the variables in order of first appearance in the body; the
	// substitution is a slice indexed by that number. Validate guarantees
	// every call variable occurs in the body.
	slots := map[string]int{}
	slotOf := func(args []ArgTerm) []int {
		out := make([]int, len(args))
		for i, a := range args {
			out[i] = -1
			if a.kind != argVar {
				continue
			}
			s, ok := slots[a.name]
			if !ok {
				s = len(slots)
				slots[a.name] = s
			}
			out[i] = s
		}
		return out
	}
	atomSlots := make([][]int, len(k.Body))
	for i, atom := range k.Body {
		atomSlots[i] = slotOf(atom.Args)
	}
	callSlots := make([][]int, len(k.Calls))
	nargs := 0
	for i, call := range k.Calls {
		callSlots[i] = slotOf(call.Args)
		nargs += len(call.Args)
	}
	// relevant lists the slots of the variables appearing in some call.
	var relevant []int
	inCall := make([]bool, len(slots))
	for i := range k.Calls {
		for _, s := range callSlots[i] {
			if s >= 0 && !inCall[s] {
				inCall[s] = true
				relevant = append(relevant, s)
			}
		}
	}
	binding := make([]relational.Value, len(slots))
	isBound := make([]bool, len(slots))

	var out []*Ground
	var keys []string
	seen := map[string]bool{}
	// Ground gi's relevant values encode to ids[idAt[gi]:idAt[gi+1]].
	// heads maps the hash of an encoding to the latest ground with that
	// hash; prev[gi] is the ground before gi with the same hash, or -1.
	seed := maphash.MakeSeed()
	heads := map[uint64]int{}
	var prev []int
	var ids, id []byte
	idAt := []int{0}
	// New grounds, their argument lists and the arguments are carved from
	// chunks that double from 4 to groundChunk grounds; a chunk is
	// replaced only when full.
	var grounds []Ground
	var argLists [][]relational.Value
	var argVals []relational.Value
	// args holds the current substitution's call arguments; a new Ground
	// copies them only when their key has not been seen.
	args := make([][]relational.Value, len(k.Calls))
	for i, call := range k.Calls {
		args[i] = make([]relational.Value, len(call.Args))
	}
	var key []byte
	emit := func() {
		id = id[:0]
		for _, s := range relevant {
			id = binding[s].AppendIdentity(id)
		}
		h := maphash.Bytes(seed, id)
		head, hashed := heads[h]
		if !hashed {
			head = -1
		}
		for gi := head; gi >= 0; gi = prev[gi] {
			if string(ids[idAt[gi]:idAt[gi+1]]) == string(id) {
				return
			}
		}
		for i, call := range k.Calls {
			for j, a := range call.Args {
				if s := callSlots[i][j]; s >= 0 {
					args[i][j] = binding[s]
				} else {
					args[i][j] = a.val
				}
			}
		}
		key = appendGroundKey(key[:0], k.Name, args)
		if seen[string(key)] {
			return
		}
		ks := string(key)
		seen[ks] = true
		if len(grounds) == cap(grounds) {
			n := min(groundChunk, max(4, 2*cap(grounds)))
			grounds = make([]Ground, 0, n)
			argLists = make([][]relational.Value, 0, n*len(k.Calls))
			argVals = make([]relational.Value, 0, n*nargs)
		}
		grounds = append(grounds, Ground{Source: k})
		g := &grounds[len(grounds)-1]
		// Each call's arguments are capped so an append cannot run into
		// the next.
		off := len(argLists)
		for i := range args {
			start := len(argVals)
			argVals = append(argVals, args[i]...)
			argLists = append(argLists, argVals[start:len(argVals):len(argVals)])
		}
		g.Args = argLists[off:len(argLists):len(argLists)]
		heads[h] = len(out)
		prev = append(prev, head)
		ids = append(ids, id...)
		idAt = append(idAt, len(ids))
		out = append(out, g)
		keys = append(keys, ks)
	}

	// bound stacks the slots each level of the match bound; a level
	// unbinds and truncates back to its mark after every tuple.
	var bound []int
	var match func(atomIdx int)
	match = func(atomIdx int) {
		if atomIdx == len(k.Body) {
			emit()
			return
		}
		atom := k.Body[atomIdx]
		rel := db.Relation(atom.Relation)
		mark := len(bound)
		for _, t := range rel.Tuples() {
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
					s := atomSlots[atomIdx][i]
					if isBound[s] {
						if !binding[s].Equal(t.At(i)) {
							ok = false
						}
					} else {
						binding[s] = t.At(i)
						isBound[s] = true
						bound = append(bound, s)
					}
				}
				if !ok {
					break
				}
			}
			if ok {
				match(atomIdx + 1)
			}
			for _, s := range bound[mark:] {
				isBound[s] = false
			}
			bound = bound[:mark]
		}
	}
	match(0)
	return out, keys
}

// groundChunk bounds how many grounds groundAll allocates at once: a
// chunk costs three allocations, and at most one chunk is partly unused.
const groundChunk = 32

// Violation reports one ground constraint that does not hold, with the
// left-hand side value observed.
type Violation struct {
	Ground *Ground
	LHS    float64
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s (lhs = %g)", v.Ground, v.LHS)
}

// Check evaluates every constraint on db and returns the violations
// (D |= AC iff the result is empty), ordered by ground key. eps is the
// numeric tolerance.
func Check(db *relational.Database, acs []*Constraint, eps float64) ([]Violation, error) {
	g, err := NewGrounding(db, acs)
	if err != nil {
		return nil, err
	}
	return g.Violations(eps)
}
