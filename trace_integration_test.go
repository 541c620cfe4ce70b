package dart_test

import (
	"context"
	"testing"

	"dart"
	"dart/internal/docgen"
	"dart/internal/obs"
	"dart/internal/scenario"
	"dart/internal/validate"
)

// findSpans returns every node named name anywhere in the tree.
func findSpans(node *obs.SpanNode, name string) []*obs.SpanNode {
	if node == nil {
		return nil
	}
	var out []*obs.SpanNode
	if node.Name == name {
		out = append(out, node)
	}
	for _, c := range node.Children {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

// TestPipelineTraceCoversValidationLoop runs the operator pipeline under a
// tracer and checks the trace records one "stage.prepare" span and one span
// per validation iteration, each holding its solve as a "stage.resolve"
// span, with the loop's accept/reject decisions summing up across them.
func TestPipelineTraceCoversValidationLoop(t *testing.T) {
	truth := docgen.BudgetDatabase(docgen.RunningExampleBudget())
	doc := docgen.RunningExampleDocument()
	doc.Tables[1].Rows[1][1].Text = "700" // cash sales 2004: true value 100
	md, err := scenario.CashBudget()
	if err != nil {
		t.Fatal(err)
	}
	p := &dart.Pipeline{
		Metadata: md,
		Operator: &validate.OracleOperator{Truth: truth},
	}

	tracer := obs.New(obs.Config{})
	root := tracer.StartTrace("test-run")
	ctx := obs.ContextWithSpan(context.Background(), root)
	res, err := p.ProcessContext(ctx, doc.HTML())
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Validation == nil {
		t.Fatal("no validation outcome")
	}

	tr, ok := tracer.Trace(root.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	tree := tr.Tree()

	solver := findSpans(tree, "stage.solver")
	if len(solver) != 1 {
		t.Fatalf("found %d stage.solver spans, want 1", len(solver))
	}
	if n := len(findSpans(solver[0], "stage.prepare")); n != 1 {
		t.Errorf("found %d stage.prepare spans, want 1", n)
	}
	iters := findSpans(solver[0], "validate.iteration")
	if len(iters) != res.Validation.Iterations {
		t.Fatalf("found %d validate.iteration spans, outcome reports %d iterations",
			len(iters), res.Validation.Iterations)
	}
	var accepted, rejected int64
	for i, it := range iters {
		if got, want := it.Attrs["iteration"], int64(i+1); got != want {
			t.Errorf("iteration span %d numbered %v, want %d", i, got, want)
		}
		resolve := findSpans(it, "stage.resolve")
		if len(resolve) != 1 {
			t.Fatalf("iteration %d has %d stage.resolve spans, want 1", i+1, len(resolve))
		}
		if len(findSpans(resolve[0], "repair.component")) == 0 {
			t.Errorf("iteration %d's stage.resolve has no repair.component child", i+1)
		}
		accepted += it.Attrs["accepted"].(int64)
		rejected += it.Attrs["rejected"].(int64)
	}
	if accepted != int64(res.Validation.Accepted) || rejected != int64(res.Validation.Rejected) {
		t.Errorf("span decision totals accepted=%d rejected=%d, outcome has %d/%d",
			accepted, rejected, res.Validation.Accepted, res.Validation.Rejected)
	}
}
