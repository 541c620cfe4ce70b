package aggrcons_test

import (
	"math"
	"math/rand"
	"testing"

	"dart/internal/aggrcons"
	"dart/internal/relational"
	"dart/internal/runningex"
)

func TestGroundAllEarlyKeyMatchesKey(t *testing.T) {
	type fixture struct {
		db  *relational.Database
		acs []*aggrcons.Constraint
	}
	joinDB, join := joinFixture(t)
	for name, fx := range map[string]fixture{
		"running example": {runningex.AcquiredDatabase(), runningex.Constraints()},
		"join":            {joinDB, []*aggrcons.Constraint{join}},
	} {
		for _, k := range fx.acs {
			grounds, keys, err := aggrcons.GroundAllKeys(k, fx.db)
			if err != nil {
				t.Fatal(err)
			}
			if len(grounds) == 0 || len(keys) != len(grounds) {
				t.Fatalf("%s/%s: %d grounds, %d keys", name, k.Name, len(grounds), len(keys))
			}
			for i, g := range grounds {
				if keys[i] != g.Key() {
					t.Errorf("%s/%s ground %d: early key %q, Key() %q", name, k.Name, i, keys[i], g.Key())
				}
			}
		}
	}
}

func TestEvaluatorMatchesScanOnRunningExample(t *testing.T) {
	db := runningex.AcquiredDatabase()
	ev := aggrcons.NewEvaluator(db)
	matched := 0
	for _, k := range runningex.Constraints() {
		grounds, err := k.GroundAll(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range grounds {
			for i, call := range k.Calls {
				want, err := call.Func.Tuples(db, g.Args[i])
				if err != nil {
					t.Fatal(err)
				}
				got, err := ev.Tuples(call.Func, g.Args[i])
				if err != nil {
					t.Fatal(err)
				}
				if !sameTuples(got, want) {
					t.Errorf("%s%v: evaluator %v, scan %v", call.Func.Name, g.Args[i], got, want)
				}
				matched += len(got)
			}
		}
	}
	if matched == 0 {
		t.Error("no call matched any tuple")
	}
}

// FuzzEvaluatorMatchesScan checks the evaluator against AggFunc.Tuples on
// small random relations and WHERE clauses decoded from the fuzz input:
// the same tuple pointers in the same order, and the same error.
func FuzzEvaluatorMatchesScan(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 96)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &choices{data: data}
		db := randomRelation(c)
		arity := c.n(4)
		fn := &aggrcons.AggFunc{
			Name:     "f",
			Relation: "R",
			Params:   make([]string, arity),
			Expr:     aggrcons.BinExpr{Op: aggrcons.OpAdd, L: aggrcons.AttrTerm("I"), R: aggrcons.AttrTerm("X")},
			Where:    randomWhere(c, arity, 0),
		}
		if c.n(16) == 0 {
			fn.Relation = "Missing"
		}
		ev := aggrcons.NewEvaluator(db)
		for call := 0; call < 4; call++ {
			n := arity
			if c.n(10) == 0 {
				n = c.n(arity + 2)
			}
			args := make([]relational.Value, n)
			for i := range args {
				args[i] = randomValue(c)
			}
			want, werr := fn.Tuples(db, args)
			got, gerr := ev.Tuples(fn, args)
			if errString(werr) != errString(gerr) {
				t.Fatalf("%s on %v: evaluator error %v, scan error %v", fn, args, gerr, werr)
			}
			if !sameTuples(got, want) {
				t.Fatalf("%s on %v:\nevaluator %v\nscan      %v", fn, args, got, want)
			}
			wsum, werr := fn.Eval(db, args)
			gsum, gerr := ev.Eval(fn, args)
			if errString(werr) != errString(gerr) || math.Float64bits(wsum) != math.Float64bits(gsum) {
				t.Fatalf("%s on %v: evaluator sum %v (%v), scan sum %v (%v)", fn, args, gsum, gerr, wsum, werr)
			}
		}
	})
}

// choices draws bounded choices from fuzz input; an exhausted input yields
// zeros.
type choices struct{ data []byte }

func (c *choices) n(k int) int {
	if k <= 1 || len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) % k
}

var (
	fuzzInts    = []int64{0, 1, 2, 2000, -1}
	fuzzReals   = []float64{0, math.Copysign(0, -1), 1, 2, 2000, math.NaN(), 0.5, -1}
	fuzzStrings = []string{"", "a", "b", "2000"}
	fuzzAttrs   = []string{"I", "J", "X", "S"}
)

func randomValue(c *choices) relational.Value {
	switch c.n(3) {
	case 0:
		return relational.Int(fuzzInts[c.n(len(fuzzInts))])
	case 1:
		return relational.Real(fuzzReals[c.n(len(fuzzReals))])
	default:
		return relational.String(fuzzStrings[c.n(len(fuzzStrings))])
	}
}

// randomRelation builds R(I: Z, J: Z, X: R, S: S) with up to 12 tuples.
func randomRelation(c *choices) *relational.Database {
	db := relational.NewDatabase()
	r := db.MustAddRelation(relational.MustSchema("R",
		relational.Attribute{Name: "I", Domain: relational.DomainInt},
		relational.Attribute{Name: "J", Domain: relational.DomainInt},
		relational.Attribute{Name: "X", Domain: relational.DomainReal},
		relational.Attribute{Name: "S", Domain: relational.DomainString},
	))
	for n := c.n(13); n > 0; n-- {
		r.MustInsert(
			relational.Int(fuzzInts[c.n(len(fuzzInts))]),
			relational.Int(fuzzInts[c.n(len(fuzzInts))]),
			relational.Real(fuzzReals[c.n(len(fuzzReals))]),
			relational.String(fuzzStrings[c.n(len(fuzzStrings))]),
		)
	}
	return db
}

func randomOperand(c *choices, arity int) aggrcons.Operand {
	switch c.n(3) {
	case 0:
		if c.n(10) == 0 {
			return aggrcons.OpAttr("Unknown")
		}
		return aggrcons.OpAttr(fuzzAttrs[c.n(len(fuzzAttrs))])
	case 1:
		if arity == 0 || c.n(10) == 0 {
			return aggrcons.OpParam(arity)
		}
		return aggrcons.OpParam(c.n(arity))
	default:
		return aggrcons.OpConst(randomValue(c))
	}
}

// randomWhere mixes Attr = Param conjuncts (the index key), arbitrary
// comparisons (some with an unknown operator), And, Or and Not.
func randomWhere(c *choices, arity, depth int) aggrcons.BoolExpr {
	kind := c.n(7)
	if depth >= 3 {
		kind %= 2
	}
	switch kind {
	case 0:
		attr := aggrcons.OpAttr(fuzzAttrs[c.n(len(fuzzAttrs))])
		param := aggrcons.OpParam(c.n(arity))
		if c.n(2) == 0 {
			return aggrcons.Cmp{L: attr, Op: aggrcons.CmpEQ, R: param}
		}
		return aggrcons.Cmp{L: param, Op: aggrcons.CmpEQ, R: attr}
	case 1:
		op := aggrcons.CmpOp(c.n(7))
		if op == 6 && c.n(4) != 0 {
			op = aggrcons.CmpEQ
		}
		return aggrcons.Cmp{L: randomOperand(c, arity), Op: op, R: randomOperand(c, arity)}
	case 2, 3, 4:
		and := aggrcons.And{}
		for n := c.n(4); n > 0; n-- {
			and = append(and, randomWhere(c, arity, depth+1))
		}
		return and
	case 5:
		or := aggrcons.Or{}
		for n := 1 + c.n(3); n > 0; n-- {
			or = append(or, randomWhere(c, arity, depth+1))
		}
		return or
	default:
		return aggrcons.Not{F: randomWhere(c, arity, depth+1)}
	}
}

func sameTuples(a, b []*relational.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
