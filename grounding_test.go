package dart_test

import (
	"math/rand"
	"testing"

	"dart"
	"dart/internal/docgen"
	"dart/internal/ocr"
)

// TestRepairWithAndWithoutGrounding checks that the repair does not depend
// on where the grounding came from: a retry on the same acquisition, an
// acquisition built by hand without one, and one whose Database was
// replaced after the check each get the repair of their own database.
func TestRepairWithAndWithoutGrounding(t *testing.T) {
	p := cashBudgetPipeline(t)
	rng := rand.New(rand.NewSource(5))
	acquire := func() *dart.Acquisition {
		t.Helper()
		doc := docgen.BudgetDocument(docgen.RandomBudget(rng, 2000, 4))
		noisy, _ := ocr.Corrupt(doc, ocr.Options{NumericErrors: 3}, rng)
		acq, err := p.Acquire(noisy.HTML())
		if err != nil {
			t.Fatal(err)
		}
		if acq.Consistent() {
			t.Fatal("corrupted document reported consistent")
		}
		return acq
	}
	acq, other := acquire(), acquire()
	snapshot := acq.Database.String()
	repair := func(name string, a *dart.Acquisition) *dart.Result {
		t.Helper()
		res, err := p.Repair(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Repair.Card() == 0 || res.Repaired == a.Database {
			t.Fatalf("%s: repair %s", name, res.Repair)
		}
		return res
	}
	want, wantOther := repair("acquisition", acq), repair("other acquisition", other)
	if want.Repair.String() == wantOther.Repair.String() {
		t.Fatal("the two documents got the same repair")
	}
	swapped := *acq
	swapped.Database = other.Database
	for _, c := range []struct {
		name string
		acq  *dart.Acquisition
		want *dart.Result
	}{
		{"retry", acq, want},
		{"no grounding", &dart.Acquisition{Database: acq.Database, Violations: acq.Violations}, want},
		{"replaced database", &swapped, wantOther},
	} {
		got := repair(c.name, c.acq)
		if got.Repair.String() != c.want.Repair.String() || got.Repaired.String() != c.want.Repaired.String() {
			t.Errorf("%s: repair %s, want %s", c.name, got.Repair, c.want.Repair)
		}
	}
	if acq.Database.String() != snapshot {
		t.Error("repairing mutated the acquired database")
	}
}
