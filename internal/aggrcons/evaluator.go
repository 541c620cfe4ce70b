package aggrcons

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"dart/internal/relational"
)

// Evaluator answers aggregation calls chi(args) on one database for the
// length of one pass over a constraint set (one NewGrounding).
//
// The first time it meets a function it splits the function's relation into
// buckets keyed on the values of the WHERE clause's top-level Attr = Param
// conjuncts (either orientation). A call then runs the unchanged WHERE
// clause on the tuples of its own bucket only, so a pass costs
// O(|R| + sum |T_chi|) instead of O(|R| x calls). When every top-level
// conjunct is such a key conjunct the bucket is exact: each of its tuples
// satisfies the clause, so the call returns the bucket itself.
//
// The answers are exactly those of AggFunc.Tuples: buckets keep relation
// order, and key equality follows Cmp.Eval (numbers compare by AsFloat, so
// Int 2000 equals Real 2000.0 and -0 equals +0; strings by content; a string
// never equals a number). A function is answered by the full scan when its
// WHERE clause has no Attr = Param conjunct, when the clause could fail on
// some tuple (unknown attribute or operator, parameter out of range), when
// the argument count is wrong, or when a key value or an argument is NaN.
//
// The index reflects the database as it was when first built: an Evaluator
// must not outlive a pass, nor see the database change under it.
type Evaluator struct {
	db      *relational.Database
	indexes map[*AggFunc]*funcIndex
	key     []byte
}

// funcIndex buckets one function's relation on its key conjuncts. Without
// buckets the function is answered by the scan. Bucket b is
// tuples[start[b]:start[b+1]].
type funcIndex struct {
	attrs  []int // schema position of each key attribute
	params []int // parameter index each key attribute is compared with
	exact  bool  // every top-level conjunct is a key conjunct
	bucket map[string]int
	start  []int
	tuples []*relational.Tuple
}

// NewEvaluator returns an evaluator over db.
func NewEvaluator(db *relational.Database) *Evaluator {
	return &Evaluator{db: db, indexes: map[*AggFunc]*funcIndex{}}
}

// Tuples returns T_chi for the call f(args), as AggFunc.Tuples does. The
// result may share its array with the evaluator and with other calls'
// results; callers must not mutate it.
func (e *Evaluator) Tuples(f *AggFunc, args []relational.Value) ([]*relational.Tuple, error) {
	ix := e.index(f)
	if ix.bucket == nil || len(args) != len(f.Params) {
		return f.Tuples(e.db, args)
	}
	var ok bool
	e.key = e.key[:0]
	for _, p := range ix.params {
		if e.key, ok = appendKeyValue(e.key, args[p]); !ok {
			return f.Tuples(e.db, args)
		}
	}
	b, found := ix.bucket[string(e.key)]
	if !found {
		return nil, nil
	}
	lo, hi := ix.start[b], ix.start[b+1]
	if ix.exact {
		return ix.tuples[lo:hi:hi], nil
	}
	var out []*relational.Tuple
	for _, t := range ix.tuples[lo:hi] {
		ok, err := f.Where.Eval(t, args)
		if err != nil {
			return nil, fmt.Errorf("aggrcons: evaluating WHERE of %s: %w", f.Name, err)
		}
		if ok {
			out = append(out, t)
		}
	}
	return out, nil
}

// Eval computes f(args), as AggFunc.Eval does.
func (e *Evaluator) Eval(f *AggFunc, args []relational.Value) (float64, error) {
	ts, err := e.Tuples(f, args)
	if err != nil {
		return 0, err
	}
	return f.sum(ts)
}

// LHS evaluates the left-hand side sum of a ground constraint.
func (e *Evaluator) LHS(g *Ground) (float64, error) {
	sum := 0.0
	for i, call := range g.Source.Calls {
		v, err := e.Eval(call.Func, g.Args[i])
		if err != nil {
			return 0, err
		}
		sum += call.Coeff * v
	}
	return sum, nil
}

// index returns f's bucket index, building it on first use. It encodes
// every tuple's key into one buffer, numbers the distinct keys in order of
// first appearance, then places the tuples bucket by bucket into one array
// in a counted pass.
func (e *Evaluator) index(f *AggFunc) *funcIndex {
	if ix, ok := e.indexes[f]; ok {
		return ix
	}
	ix := &funcIndex{}
	e.indexes[f] = ix
	r := e.db.Relation(f.Relation)
	if r == nil || !errorFree(f.Where, r.Schema(), len(f.Params)) {
		return ix
	}
	conjs := conjuncts(f.Where, nil)
	for _, c := range conjs {
		attr, param, ok := attrEqParam(c)
		if ok {
			ix.attrs = append(ix.attrs, r.Schema().AttrIndex(attr))
			ix.params = append(ix.params, param)
		}
	}
	if len(ix.attrs) == 0 {
		return ix
	}
	ts := r.Tuples()
	ends := make([]int, len(ts))
	var buf []byte
	for i, t := range ts {
		var ok bool
		for _, a := range ix.attrs {
			if buf, ok = appendKeyValue(buf, t.At(a)); !ok {
				return ix
			}
		}
		ends[i] = len(buf)
		if i == 0 {
			buf = slices.Grow(buf, len(buf)*(len(ts)-1))
		}
	}
	// The keys are substrings of one string; ends[i] becomes tuple i's
	// bucket. The runs of equal adjacent keys bound the distinct keys from
	// above and size the map and the counts; relations usually list the
	// tuples of one key together, and then the bound is exact.
	keys := string(buf)
	runs, lo, prev := 0, 0, ""
	for i, hi := range ends {
		if k := keys[lo:hi]; i == 0 || k != prev {
			runs++
			prev = k
		}
		lo = hi
	}
	bucket := make(map[string]int, runs)
	count := make([]int, 0, runs)
	lo = 0
	for i, hi := range ends {
		b, found := bucket[keys[lo:hi]]
		if !found {
			b = len(count)
			bucket[keys[lo:hi]] = b
			count = append(count, 0)
		}
		count[b]++
		ends[i], lo = b, hi
	}
	// start[b] runs from bucket b's first slot to its end while placing,
	// then shifts up one bucket to become its first slot again.
	start := make([]int, len(count)+1)
	for b, n := range count {
		start[b+1] = start[b] + n
	}
	tuples := make([]*relational.Tuple, len(ts))
	for i, t := range ts {
		b := ends[i]
		tuples[start[b]] = t
		start[b]++
	}
	copy(start[1:], start[:len(count)])
	start[0] = 0
	ix.exact = len(ix.attrs) == len(conjs)
	ix.bucket, ix.start, ix.tuples = bucket, start, tuples
	return ix
}

// conjuncts appends the top-level conjuncts of e, flattening nested Ands.
func conjuncts(e BoolExpr, dst []BoolExpr) []BoolExpr {
	if a, ok := e.(And); ok {
		for _, f := range a {
			dst = conjuncts(f, dst)
		}
		return dst
	}
	return append(dst, e)
}

// attrEqParam matches Attr = Param and Param = Attr.
func attrEqParam(e BoolExpr) (attr string, param int, ok bool) {
	c, isCmp := e.(Cmp)
	if !isCmp || c.Op != CmpEQ {
		return "", 0, false
	}
	switch {
	case c.L.kind == opAttr && c.R.kind == opParam:
		return c.L.attr, c.R.param, true
	case c.L.kind == opParam && c.R.kind == opAttr:
		return c.R.attr, c.L.param, true
	}
	return "", 0, false
}

// errorFree reports whether evaluating e on any tuple of scheme s, with
// arity arguments, cannot fail. Only then may tuples outside a call's
// bucket go unevaluated: the scan would report any per-tuple error.
func errorFree(e BoolExpr, s *relational.Schema, arity int) bool {
	operandOK := func(o Operand) bool {
		switch o.kind {
		case opAttr:
			return s.HasAttr(o.attr)
		case opParam:
			return o.param >= 0 && o.param < arity
		default:
			return true
		}
	}
	switch x := e.(type) {
	case Cmp:
		return x.Op >= CmpEQ && x.Op <= CmpGE && operandOK(x.L) && operandOK(x.R)
	case And:
		for _, f := range x {
			if !errorFree(f, s, arity) {
				return false
			}
		}
		return true
	case Or:
		for _, f := range x {
			if !errorFree(f, s, arity) {
				return false
			}
		}
		return true
	case Not:
		return errorFree(x.F, s, arity)
	default:
		return false
	}
}

// appendKeyValue appends an encoding of v under which two values are equal
// exactly when Cmp.Eval finds them equal: numbers by AsFloat (-0 as +0),
// strings by content, never a string and a number. It reports false for
// NaN, which Cmp.Eval finds equal to every number.
func appendKeyValue(dst []byte, v relational.Value) ([]byte, bool) {
	if !v.IsNumeric() {
		s := v.AsString()
		dst = append(dst, 's')
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...), true
	}
	f := v.AsFloat()
	if math.IsNaN(f) {
		return dst, false
	}
	if f == 0 {
		f = 0 // -0 keys as +0
	}
	dst = append(dst, 'n')
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f)), true
}
