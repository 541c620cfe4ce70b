package aggrcons

import (
	"fmt"

	"dart/internal/relational"
)

// AggFunc is an aggregation function on a relational scheme (Section 3.1):
//
//	chi(x1, ..., xk) = SELECT sum(e) FROM R WHERE alpha(x1, ..., xk)
//
// Params names the formal parameters; Where may reference them by index.
type AggFunc struct {
	Name     string
	Relation string
	Params   []string
	Expr     AttrExpr
	Where    BoolExpr
}

// Arity returns the number of formal parameters.
func (f *AggFunc) Arity() int { return len(f.Params) }

// Tuples returns T_chi: the tuples of the function's relation satisfying the
// WHERE clause under the given arguments.
func (f *AggFunc) Tuples(db *relational.Database, args []relational.Value) ([]*relational.Tuple, error) {
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("aggrcons: %s expects %d arguments, got %d", f.Name, len(f.Params), len(args))
	}
	r := db.Relation(f.Relation)
	if r == nil {
		return nil, fmt.Errorf("aggrcons: %s aggregates over unknown relation %q", f.Name, f.Relation)
	}
	var out []*relational.Tuple
	for _, t := range r.Tuples() {
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

// Eval computes SELECT sum(e) FROM R WHERE alpha(args). The sum over an
// empty tuple set is 0, as in SQL's sum over no rows coalesced to zero —
// the convention the paper's examples rely on.
func (f *AggFunc) Eval(db *relational.Database, args []relational.Value) (float64, error) {
	ts, err := f.Tuples(db, args)
	if err != nil {
		return 0, err
	}
	return f.sum(ts)
}

// sum adds up the function's expression over T_chi, in tuple order.
func (f *AggFunc) sum(ts []*relational.Tuple) (float64, error) {
	sum := 0.0
	for _, t := range ts {
		v, err := f.Expr.Eval(t)
		if err != nil {
			return 0, fmt.Errorf("aggrcons: evaluating sum expression of %s: %w", f.Name, err)
		}
		sum += v
	}
	return sum, nil
}

// WhereAttrNames returns the attribute names appearing in the WHERE clause
// (deduplicated, in first-appearance order).
func (f *AggFunc) WhereAttrNames() []string {
	return dedupeStrings(f.Where.WhereAttrs(nil))
}

// WhereParamIndexes returns the parameter indices appearing in the WHERE
// clause (deduplicated, ascending first-appearance order).
func (f *AggFunc) WhereParamIndexes() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range f.Where.WhereParams(nil) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// String renders the function definition in the paper's SELECT notation.
func (f *AggFunc) String() string {
	params := ""
	for i, p := range f.Params {
		if i > 0 {
			params += ","
		}
		params += p
	}
	return fmt.Sprintf("%s(%s) := SELECT sum(%s) FROM %s WHERE %s",
		f.Name, params, f.Expr, f.Relation, f.Where.Render(f.Params))
}

func dedupeStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
