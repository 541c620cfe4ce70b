package relational

import (
	"fmt"
	"slices"
	"strings"
)

// Tuple is a ground atom R(v1, ..., vn). Tuples carry a relation-local
// identifier assigned at insertion time; identifiers are stable across
// value updates, which lets the repairing machinery address database items
// as (tuple, attribute) pairs.
type Tuple struct {
	schema *Schema
	id     int
	vals   []Value
}

// Schema returns the scheme the tuple conforms to.
func (t *Tuple) Schema() *Schema { return t.schema }

// ID returns the relation-local tuple identifier. Identifiers number the
// tuples in insertion order from 0, and a relation never removes a tuple,
// so a tuple's identifier is its position in Relation.Tuples.
func (t *Tuple) ID() int { return t.id }

// Get returns the value of the named attribute (the paper's t[A]).
// It panics if the attribute does not exist; use the scheme to validate.
func (t *Tuple) Get(attr string) Value {
	i := t.schema.AttrIndex(attr)
	if i < 0 {
		panic(fmt.Sprintf("relational: tuple of %s has no attribute %q", t.schema.Name(), attr))
	}
	return t.vals[i]
}

// At returns the value at attribute position i.
func (t *Tuple) At(i int) Value { return t.vals[i] }

// Values returns a copy of the tuple's values.
func (t *Tuple) Values() []Value { return append([]Value(nil), t.vals...) }

// String renders the tuple as a ground atom.
func (t *Tuple) String() string {
	parts := make([]string, len(t.vals))
	for i, v := range t.vals {
		if v.Kind() == DomainString {
			parts[i] = "'" + v.String() + "'"
		} else {
			parts[i] = v.String()
		}
	}
	return t.schema.Name() + "(" + strings.Join(parts, ", ") + ")"
}

// Relation is a finite set of tuples over one scheme, in insertion order.
type Relation struct {
	schema *Schema
	tuples []*Tuple
	nextID int
	// spare is the room Grow reserved for later inserts, nil when used
	// up; a pointer keeps the relation itself as small as before.
	spare *reserve
}

// reserve holds room for tuples and their values.
type reserve struct {
	tuples []Tuple
	vals   []Value
}

// NewRelation creates an empty relation over the given scheme.
func NewRelation(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// Schema returns the relation's scheme.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Insert appends a tuple with the given values, checking arity and domains.
// It returns the inserted tuple.
func (r *Relation) Insert(vals ...Value) (*Tuple, error) {
	if len(vals) != r.schema.Arity() {
		return nil, fmt.Errorf("relational: %s expects %d values, got %d",
			r.schema.Name(), r.schema.Arity(), len(vals))
	}
	for i, v := range vals {
		want := r.schema.Attribute(i).Domain
		if v.Kind() != want {
			return nil, fmt.Errorf("relational: %s.%s expects domain %s, got %s value %v",
				r.schema.Name(), r.schema.Attribute(i).Name, want, v.Kind(), v)
		}
	}
	var t *Tuple
	if sp := r.spare; sp != nil {
		t = &sp.tuples[0]
		t.vals = sp.vals[:len(vals):len(vals)]
		sp.tuples, sp.vals = sp.tuples[1:], sp.vals[len(vals):]
		if len(sp.tuples) == 0 {
			r.spare = nil
		}
	} else {
		t = &Tuple{vals: make([]Value, len(vals))}
	}
	t.schema, t.id = r.schema, r.nextID
	copy(t.vals, vals)
	r.nextID++
	r.tuples = append(r.tuples, t)
	return t, nil
}

// Grow reserves room for n more tuples: the next n inserts share one
// array of tuples and one of values and allocate nothing.
func (r *Relation) Grow(n int) {
	if n <= 0 {
		return
	}
	r.tuples = slices.Grow(r.tuples, n)
	r.spare = &reserve{tuples: make([]Tuple, n), vals: make([]Value, n*r.schema.Arity())}
}

// MustInsert is Insert that panics on error; for statically known tuples.
func (r *Relation) MustInsert(vals ...Value) *Tuple {
	t, err := r.Insert(vals...)
	if err != nil {
		panic(err)
	}
	return t
}

// Tuples returns the tuples in insertion order. The returned slice must not
// be modified.
func (r *Relation) Tuples() []*Tuple { return r.tuples }

// TupleByID returns the tuple with the given identifier, or nil.
func (r *Relation) TupleByID(id int) *Tuple {
	if id < 0 || id >= len(r.tuples) {
		return nil
	}
	return r.tuples[id]
}

// Select returns the tuples satisfying the predicate, in insertion order.
func (r *Relation) Select(pred func(*Tuple) bool) []*Tuple {
	var out []*Tuple
	for _, t := range r.tuples {
		if pred(t) {
			out = append(out, t)
		}
	}
	return out
}

// SetValue updates attribute attr of the tuple with the given id to v,
// checking the domain. This is the primitive the repairing module uses to
// apply atomic updates.
func (r *Relation) SetValue(id int, attr string, v Value) error {
	t := r.TupleByID(id)
	if t == nil {
		return fmt.Errorf("relational: %s has no tuple with id %d", r.schema.Name(), id)
	}
	i := r.schema.AttrIndex(attr)
	if i < 0 {
		return fmt.Errorf("relational: %s has no attribute %q", r.schema.Name(), attr)
	}
	if want := r.schema.Attribute(i).Domain; v.Kind() != want {
		return fmt.Errorf("relational: %s.%s expects domain %s, got %s",
			r.schema.Name(), attr, want, v.Kind())
	}
	t.vals[i] = v
	return nil
}

// Clone returns a deep copy of the relation (tuple identifiers preserved).
// The copied tuples, and their values, share one array each.
func (r *Relation) Clone() *Relation {
	c := &Relation{schema: r.schema, nextID: r.nextID, tuples: make([]*Tuple, len(r.tuples))}
	ts := make([]Tuple, len(r.tuples))
	vals := make([]Value, 0, len(r.tuples)*r.schema.Arity())
	for i, t := range r.tuples {
		off := len(vals)
		vals = append(vals, t.vals...)
		ts[i] = Tuple{schema: t.schema, id: t.id, vals: vals[off:len(vals):len(vals)]}
		c.tuples[i] = &ts[i]
	}
	return c
}
