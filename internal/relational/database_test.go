package relational

import (
	"strings"
	"testing"
)

func cashBudgetSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("CashBudget",
		Attribute{"Year", DomainInt},
		Attribute{"Section", DomainString},
		Attribute{"Subsection", DomainString},
		Attribute{"Type", DomainString},
		Attribute{"Value", DomainInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(""); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewSchema("R"); err == nil {
		t.Error("no attributes should fail")
	}
	if _, err := NewSchema("R", Attribute{"", DomainInt}); err == nil {
		t.Error("empty attribute name should fail")
	}
	if _, err := NewSchema("R", Attribute{"A", DomainInt}, Attribute{"A", DomainReal}); err == nil {
		t.Error("duplicate attribute should fail")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := cashBudgetSchema(t)
	if s.Name() != "CashBudget" || s.Arity() != 5 {
		t.Fatalf("unexpected schema %v", s)
	}
	if i := s.AttrIndex("Subsection"); i != 2 {
		t.Errorf("AttrIndex(Subsection) = %d, want 2", i)
	}
	if i := s.AttrIndex("Nope"); i != -1 {
		t.Errorf("AttrIndex(Nope) = %d, want -1", i)
	}
	d, err := s.DomainOf("Value")
	if err != nil || d != DomainInt {
		t.Errorf("DomainOf(Value) = %v, %v", d, err)
	}
	if _, err := s.DomainOf("Nope"); err == nil {
		t.Error("DomainOf(Nope) should fail")
	}
	want := "CashBudget(Year:Z, Section:S, Subsection:S, Type:S, Value:Z)"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRelationInsertAndSelect(t *testing.T) {
	r := NewRelation(cashBudgetSchema(t))
	_, err := r.Insert(Int(2003), String("Receipts"), String("cash sales"), String("det"), Int(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(Int(2003)); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := r.Insert(String("2003"), String("a"), String("b"), String("c"), Int(1)); err == nil {
		t.Error("domain mismatch should fail")
	}
	r.MustInsert(Int(2004), String("Receipts"), String("cash sales"), String("det"), Int(100))
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	got := r.Select(func(t *Tuple) bool { return t.Get("Year") == Int(2003) })
	if len(got) != 1 || got[0].ID() != 0 {
		t.Errorf("Select returned %v", got)
	}
}

func TestTupleAccessorsAndString(t *testing.T) {
	r := NewRelation(cashBudgetSchema(t))
	tp := r.MustInsert(Int(2003), String("Receipts"), String("cash sales"), String("det"), Int(100))
	if tp.Get("Value") != Int(100) {
		t.Errorf("Get(Value) = %v", tp.Get("Value"))
	}
	if tp.At(0) != Int(2003) {
		t.Errorf("At(0) = %v", tp.At(0))
	}
	want := "CashBudget(2003, 'Receipts', 'cash sales', 'det', 100)"
	if got := tp.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Get of missing attribute should panic")
		}
	}()
	tp.Get("Nope")
}

func TestSetValue(t *testing.T) {
	r := NewRelation(cashBudgetSchema(t))
	tp := r.MustInsert(Int(2003), String("Receipts"), String("total cash receipts"), String("aggr"), Int(250))
	if err := r.SetValue(tp.ID(), "Value", Int(220)); err != nil {
		t.Fatal(err)
	}
	if tp.Get("Value") != Int(220) {
		t.Errorf("after SetValue, Value = %v", tp.Get("Value"))
	}
	if err := r.SetValue(99, "Value", Int(1)); err == nil {
		t.Error("missing tuple id should fail")
	}
	if err := r.SetValue(tp.ID(), "Nope", Int(1)); err == nil {
		t.Error("missing attribute should fail")
	}
	if err := r.SetValue(tp.ID(), "Value", String("x")); err == nil {
		t.Error("domain mismatch should fail")
	}
}

func TestRelationClone(t *testing.T) {
	r := NewRelation(cashBudgetSchema(t))
	tp := r.MustInsert(Int(2003), String("Receipts"), String("cash sales"), String("det"), Int(100))
	c := r.Clone()
	if err := c.SetValue(tp.ID(), "Value", Int(999)); err != nil {
		t.Fatal(err)
	}
	if tp.Get("Value") != Int(100) {
		t.Error("Clone is not deep: original changed")
	}
	if c.TupleByID(tp.ID()).Get("Value") != Int(999) {
		t.Error("clone update lost")
	}
}

// TestRelationIDsArePositions inserts into room reserved by Grow and past
// it, and checks that every tuple's ID is its position, that TupleByID finds it,
// that each tuple keeps its own values, and that a clone and its original
// stay apart under SetValue and Insert.
func TestRelationIDsArePositions(t *testing.T) {
	r := NewRelation(cashBudgetSchema(t))
	r.Grow(0)
	r.Grow(16)
	for i := 0; i < 40; i++ {
		r.MustInsert(Int(int64(2000+i)), String("Receipts"), String("cash sales"), String("det"), Int(int64(i)))
	}
	c := r.Clone()
	for i, tp := range r.Tuples() {
		if tp.ID() != i || r.TupleByID(i) != tp || tp.Get("Value") != Int(int64(i)) || tp.Get("Year") != Int(int64(2000+i)) {
			t.Fatalf("tuple %d: ID %d, TupleByID %v, values %v", i, tp.ID(), r.TupleByID(i), tp)
		}
		if err := c.SetValue(i, "Value", Int(-1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{-1, 40} {
		if r.TupleByID(id) != nil {
			t.Errorf("TupleByID(%d) found a tuple", id)
		}
	}
	if err := r.SetValue(39, "Value", Int(7)); err != nil {
		t.Fatal(err)
	}
	r.MustInsert(Int(2040), String("Receipts"), String("cash sales"), String("det"), Int(40))
	if c.Len() != 40 || c.TupleByID(39).Get("Value") != Int(-1) || r.TupleByID(0).Get("Value") != Int(0) {
		t.Error("clone and original share storage")
	}
	if got := r.TupleByID(40); got == nil || got.ID() != 40 || got.Get("Value") != Int(40) || r.TupleByID(39).Get("Value") != Int(7) {
		t.Errorf("insert after clone: %v, previous %v", got, r.TupleByID(39))
	}
}

func TestDatabaseMeasures(t *testing.T) {
	db := NewDatabase()
	db.MustAddRelation(cashBudgetSchema(t))
	if _, err := db.AddRelation(cashBudgetSchema(t)); err == nil {
		t.Error("duplicate relation should fail")
	}
	if err := db.DesignateMeasure("CashBudget", "Value"); err != nil {
		t.Fatal(err)
	}
	if err := db.DesignateMeasure("CashBudget", "Section"); err == nil {
		t.Error("string attribute cannot be a measure")
	}
	if err := db.DesignateMeasure("Nope", "Value"); err == nil {
		t.Error("missing relation should fail")
	}
	if err := db.DesignateMeasure("CashBudget", "Nope"); err == nil {
		t.Error("missing attribute should fail")
	}
	if !db.IsMeasure("CashBudget", "Value") {
		t.Error("Value should be a measure")
	}
	if db.IsMeasure("CashBudget", "Year") {
		t.Error("Year was not designated")
	}
	if got := db.Measures(); len(got) != 1 || got[0] != (AttrRef{"CashBudget", "Value"}) {
		t.Errorf("Measures() = %v", got)
	}
	if got := db.MeasuresOf("CashBudget"); len(got) != 1 || got[0] != "Value" {
		t.Errorf("MeasuresOf = %v", got)
	}
	if got := db.MeasuresOf("Nope"); got != nil {
		t.Errorf("MeasuresOf(Nope) = %v", got)
	}
}

func TestDatabaseCloneAndString(t *testing.T) {
	db := NewDatabase()
	r := db.MustAddRelation(cashBudgetSchema(t))
	tp := r.MustInsert(Int(2003), String("Receipts"), String("cash sales"), String("det"), Int(100))
	if err := db.DesignateMeasure("CashBudget", "Value"); err != nil {
		t.Fatal(err)
	}
	c := db.Clone()
	if err := c.Relation("CashBudget").SetValue(tp.ID(), "Value", Int(5)); err != nil {
		t.Fatal(err)
	}
	if tp.Get("Value") != Int(100) {
		t.Error("database Clone is not deep")
	}
	if !c.IsMeasure("CashBudget", "Value") {
		t.Error("clone lost measures")
	}
	if db.TotalTuples() != 1 {
		t.Errorf("TotalTuples = %d", db.TotalTuples())
	}
	s := db.String()
	for _, want := range []string{"CashBudget", "Year", "cash sales", "100"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
