// Package validate implements the Validation Interface of Section 6.3: the
// computed repair is presented to an operator update by update — ordered by
// how many ground constraints the updated item participates in, the paper's
// display-ordering heuristic — and every decision becomes a forced-value
// constraint for the next repair computation. Accepting an update pins the
// suggested value; rejecting it pins the actual source value the operator
// reads off the document. The loop re-solves until a repair is fully
// accepted. Values validated in earlier iterations are never presented
// again.
//
// Since the auditable-repair refactor the loop is non-destructive: the
// acquired database is never mutated. Every candidate update becomes a
// repair.Suggestion in a repair.Ledger (proposed → accepted/rejected, with
// revert and supersede transitions, who/when audit fields, and a replayable
// event journal), decisions are made by a generic repair.Decider — the
// stdin Operator is one driver of it, the dartd HTTP workbench another —
// and the final repaired database is materialized through a repair.Overlay
// from base + pinned decisions.
//
// The loop grounds the constraint system exactly once: Run prepares a
// core.Problem up front (or adopts one via Session.Problem) and every
// iteration re-solves the prepared problem under the accumulated pins, so
// multi-iteration sessions do not pay a per-iteration grounding cost.
package validate

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dart/internal/aggrcons"
	"dart/internal/core"
	"dart/internal/milp"
	"dart/internal/obs"
	"dart/internal/relational"
	"dart/internal/repair"
)

// ErrInputClosed reports that the operator's input stream ended before a
// decision was read. Silently accepting the remaining updates would let an
// aborted session (a closed pipe, a hung-up terminal) commit unreviewed
// values, so the loop surfaces the condition instead.
var ErrInputClosed = errors.New("validate: operator input closed before a decision was read")

// Decision is an operator's verdict on one proposed update.
type Decision struct {
	// Accepted means the suggested value matches the source document.
	Accepted bool
	// ActualValue is the true source value (meaningful when !Accepted).
	ActualValue float64
}

// Operator reviews proposed updates by comparing them with the source
// document.
type Operator interface {
	// Review decides on one proposed update. A non-nil error aborts the
	// validation loop (e.g. ErrInputClosed when an interactive operator's
	// input stream ends mid-review).
	Review(u core.Update) (Decision, error)
}

// OracleOperator simulates a human operator who reads the (ground-truth)
// source document perfectly: it accepts an update iff the suggested value
// equals the true value, and supplies the true value otherwise. Experiments
// use it to measure operator effort without a human in the loop.
type OracleOperator struct {
	Truth *relational.Database
}

// Review implements Operator.
func (o *OracleOperator) Review(u core.Update) (Decision, error) {
	rel := o.Truth.Relation(u.Item.Relation)
	if rel == nil {
		return Decision{Accepted: false, ActualValue: u.Old.AsFloat()}, nil
	}
	t := rel.TupleByID(u.Item.TupleID)
	if t == nil {
		return Decision{Accepted: false, ActualValue: u.Old.AsFloat()}, nil
	}
	truth := t.Get(u.Item.Attr).AsFloat()
	if u.New.AsFloat() == truth {
		return Decision{Accepted: true, ActualValue: truth}, nil
	}
	return Decision{Accepted: false, ActualValue: truth}, nil
}

// InteractiveOperator prompts a human on the given streams: 'y' accepts,
// anything else asks for the actual value. When the input stream ends
// before a decision is read, Review fails with ErrInputClosed (wrapping
// any scanner error).
type InteractiveOperator struct {
	In  io.Reader
	Out io.Writer

	scanner *bufio.Scanner
}

// Review implements Operator.
func (o *InteractiveOperator) Review(u core.Update) (Decision, error) {
	if o.scanner == nil {
		o.scanner = bufio.NewScanner(o.In)
	}
	fmt.Fprintf(o.Out, "Proposed update: %s\n", u)
	for {
		fmt.Fprintf(o.Out, "Accept? [y/n] ")
		if !o.scanner.Scan() {
			return Decision{}, o.inputClosed()
		}
		switch strings.ToLower(strings.TrimSpace(o.scanner.Text())) {
		case "y", "yes":
			return Decision{Accepted: true}, nil
		case "n", "no":
			fmt.Fprintf(o.Out, "Actual source value: ")
			if !o.scanner.Scan() {
				return Decision{}, o.inputClosed()
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(o.scanner.Text()), 64)
			if err != nil {
				fmt.Fprintf(o.Out, "not a number: %v\n", err)
				continue
			}
			return Decision{Accepted: false, ActualValue: v}, nil
		default:
			fmt.Fprintf(o.Out, "please answer y or n\n")
		}
	}
}

// inputClosed wraps a scanner failure into ErrInputClosed, keeping the
// underlying read error (if any) inspectable via errors.Is/As.
func (o *InteractiveOperator) inputClosed() error {
	if err := o.scanner.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrInputClosed, err)
	}
	return ErrInputClosed
}

// OperatorDecider drives a suggestion ledger with a per-update Operator:
// the stdin and oracle operators become one Decider among others. Each
// open suggestion is presented in review order; the verdict is applied to
// the ledger only after the context is re-checked, so a decision arriving
// after cancellation is discarded rather than partially applied.
// Decisions are recorded under the ledger's default identity, "operator".
type OperatorDecider struct {
	Operator Operator
}

// Decide implements repair.Decider.
func (d *OperatorDecider) Decide(ctx context.Context, l *repair.Ledger, open []repair.Suggestion) error {
	for _, sg := range open {
		u, err := suggestionUpdate(sg)
		if err != nil {
			return err
		}
		dec, rerr := d.Operator.Review(u)
		if rerr != nil {
			return fmt.Errorf("validate: operator review: %w", rerr)
		}
		// Decide-then-check: the review may have blocked (a human at a
		// terminal) past the session's deadline or cancellation. Checking
		// the context *before* touching the ledger guarantees a late
		// verdict is never applied — the round aborts with no partial
		// decision recorded.
		if err := ctx.Err(); err != nil {
			return err
		}
		if dec.Accepted {
			_, err = l.Accept(sg.ID, "", sg.Seq)
		} else {
			_, err = l.Reject(sg.ID, dec.ActualValue, "", sg.Seq)
		}
		if err != nil {
			return fmt.Errorf("validate: recording decision on %s: %w", &sg, err)
		}
	}
	return nil
}

// suggestionUpdate reconstructs the core.Update a suggestion was built
// from; measures are numeric, so the float round-trip through the domain
// is exact.
func suggestionUpdate(sg repair.Suggestion) (core.Update, error) {
	dom, err := relational.ParseDomain(sg.Domain)
	if err != nil {
		return core.Update{}, fmt.Errorf("validate: suggestion %s: %w", &sg, err)
	}
	oldV, err := relational.FromFloat(sg.Old, dom)
	if err != nil {
		return core.Update{}, fmt.Errorf("validate: suggestion %s: %w", &sg, err)
	}
	newV, err := relational.FromFloat(sg.New, dom)
	if err != nil {
		return core.Update{}, fmt.Errorf("validate: suggestion %s: %w", &sg, err)
	}
	return core.Update{Item: sg.Item(), Old: oldV, New: newV}, nil
}

// maxIterations caps the repair computations of one Session.Run.
const maxIterations = 100

// Session drives one document's validation loop.
type Session struct {
	DB          *relational.Database
	Constraints []*aggrcons.Constraint
	Solver      core.Solver
	// Operator validates proposed updates on a per-update interface; it is
	// wrapped into an OperatorDecider. Ignored when Decider is set.
	Operator Operator
	// Decider decides open suggestions round by round (the generic
	// interface; the HTTP workbench and journal replay plug in here).
	Decider repair.Decider
	// Ledger, when non-nil, is adopted instead of a fresh one — the resume
	// path: a ledger restored from a journal re-proposes its open queue
	// idempotently and keeps its decision history and counters.
	Ledger *repair.Ledger
	// Problem, when non-nil, supplies an already-prepared repair problem
	// for (DB, Constraints); Run prepares one otherwise. Sharing a problem
	// across sessions of the same database additionally shares the
	// component-solve memo.
	Problem *core.Problem
	// DisablePreparedReuse makes every iteration re-ground and re-solve
	// from scratch (the pre-refactor behaviour). It exists for the
	// differential tests and the BenchmarkValidationLoop baseline; results
	// are identical either way.
	DisablePreparedReuse bool
	// Context, when non-nil, bounds every repair computation of the loop;
	// nil means context.Background().
	Context context.Context
	// ReviewPerIteration restarts the repair computation after validating
	// this many updates per iteration; 0 reviews the whole proposed repair
	// before re-solving (the paper notes re-starting "after validating only
	// some of the suggested updates" as a designer choice).
	ReviewPerIteration int
	// AutoAcceptReliable accepts without operator review any proposed
	// update whose item takes the same value in every card-minimal repair
	// (the consistent answer of [16]) — an extension beyond the paper that
	// trades a small recovery risk for fewer operator decisions; experiment
	// E12 quantifies the trade.
	AutoAcceptReliable bool
}

// Outcome reports the finished loop.
type Outcome struct {
	// Repaired is the final consistent database, materialized through the
	// overlay; the session's input database is never mutated.
	Repaired *relational.Database
	// Final is the accepted repair (operator-corrected values included).
	Final *core.Repair
	// Iterations is the number of repair computations performed (resumed
	// sessions count the restored rounds too).
	Iterations int
	// Examined counts operator decisions (the paper's human-effort metric:
	// values compared against the source document).
	Examined int
	// Accepted and Rejected split Examined by verdict.
	Accepted, Rejected int
	// AutoAccepted counts updates accepted via reliability analysis without
	// consulting the operator (only with Session.AutoAcceptReliable).
	AutoAccepted int
	// ComponentsSolved and ComponentsReused count component-level solver
	// work across the loop; reused components were served from the prepared
	// problem's memo without re-solving (both 0 with DisablePreparedReuse).
	ComponentsSolved, ComponentsReused int
	// SolverNodes totals the branch-and-bound nodes explored across every
	// solve of the loop.
	SolverNodes int
	// Forced is the final set of operator-pinned values.
	Forced map[core.Item]float64
	// Ledger is the session's suggestion ledger: full audit history and
	// replayable event journal.
	Ledger *repair.Ledger
	// Suggestions snapshots every suggestion record at finish, in ID order.
	Suggestions []repair.Suggestion
}

// Run executes the validation loop to acceptance.
func (s *Session) Run() (*Outcome, error) {
	ctx := s.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ledger := s.Ledger
	if ledger == nil {
		ledger = repair.NewLedger()
	}
	decider := s.Decider
	if decider == nil {
		if s.Operator == nil {
			return nil, errors.New("validate: session needs an Operator or a Decider")
		}
		decider = &OperatorDecider{Operator: s.Operator}
	}
	// A restored ledger resumes its round numbering so re-proposed
	// suggestions match their journaled iteration fields.
	out := &Outcome{Iterations: ledger.MaxIteration()}

	// Ground once: the prepared problem carries the linear system, the
	// component decomposition, and the per-item ground-constraint counts
	// the ordering heuristic needs.
	prob := s.Problem
	if prob == nil {
		var err error
		prob, err = core.Prepare(s.DB, s.Constraints)
		if err != nil {
			return nil, err
		}
	}
	statsBefore := prob.Stats()
	occ := prob.Occurrences()
	occOf := func(it core.Item) int {
		if i := prob.System().IndexOf(it); i >= 0 {
			return occ[i]
		}
		return 0
	}

	for out.Iterations < maxIterations {
		out.Iterations++
		done, res, err := s.iterate(ctx, prob, ledger, decider, out, occOf)
		if err != nil {
			return nil, err
		}
		if done {
			return s.finish(out, prob, statsBefore, res, ledger)
		}
	}
	return nil, fmt.Errorf("validate: no accepted repair within %d iterations", maxIterations)
}

// iterate runs one solve-review round of the loop. It reports done=true
// when every suggestion of the proposed repair is decided without a reject
// or revert this round (the repair is accepted, res carries it). When
// tracing is active each round becomes one "validate.iteration" span —
// carrying the solve as a "stage.resolve" child (component spans nest
// under it), counters for the round's decisions, and one "repair.decision"
// child span per decision landed this round — so a deferred End covers
// every exit path of the round uniformly.
func (s *Session) iterate(ctx context.Context, prob *core.Problem, ledger *repair.Ledger, decider repair.Decider, out *Outcome, occOf func(core.Item) int) (done bool, res *core.Result, err error) {
	if span := obs.FromContext(ctx).StartChild("validate.iteration"); span != nil {
		span.SetInt("iteration", out.Iterations)
		ctx = obs.ContextWithSpan(ctx, span)
		c0 := ledger.Counters()
		defer func() {
			c1 := ledger.Counters()
			span.SetInt("accepted", c1.Accepted-c0.Accepted)
			span.SetInt("rejected", c1.Rejected-c0.Rejected)
			span.SetInt("auto_accepted", c1.AutoAccepted-c0.AutoAccepted)
			span.SetInt("reverted", c1.Reverted-c0.Reverted)
			if err != nil {
				span.SetStr("error", err.Error())
			}
			span.End()
		}()
	}
	pins := ledger.Pins()
	resolveSpan := obs.FromContext(ctx).StartChild("stage.resolve")
	rctx := obs.ContextWithSpan(ctx, resolveSpan)
	if s.DisablePreparedReuse {
		res, err = core.FindRepair(rctx, s.Solver, s.DB, s.Constraints, pins)
	} else {
		res, err = s.Solver.SolveProblem(rctx, prob, pins)
	}
	resolveSpan.End()
	if err != nil {
		return false, nil, err
	}
	out.SolverNodes += res.Nodes
	if res.Status != milp.StatusOptimal {
		return false, nil, fmt.Errorf("validate: repair computation ended with status %v", res.Status)
	}
	var reliableItems map[core.Item]float64
	if s.AutoAcceptReliable {
		opts := core.EnumerateOptions{Forced: pins}
		var rel []core.Reliability
		if s.DisablePreparedReuse {
			rel, err = core.ReliableValues(s.DB, s.Constraints, opts)
		} else {
			rel, err = prob.ReliableValues(opts)
		}
		if err != nil {
			return false, nil, err
		}
		reliableItems = map[core.Item]float64{}
		for _, r := range rel {
			if r.Reliable {
				reliableItems[r.Item] = r.Values[0]
			}
		}
	}
	// Sync the round's candidate updates into the ledger: cells with a
	// live decision are already pinned and never re-presented; everything
	// else becomes (or stays) an open suggestion.
	decided := ledger.DecidedItems()
	var props []repair.Proposal
	for _, u := range res.Repair.Updates {
		if decided[u.Item] {
			continue
		}
		oldF, newF := u.Old.AsFloat(), u.New.AsFloat()
		props = append(props, repair.Proposal{
			Item:        u.Item,
			Domain:      u.New.Kind().String(),
			Old:         oldF,
			New:         newF,
			Occurrences: occOf(u.Item),
			Confidence:  repair.Confidence(oldF, newF),
			Evidence:    prob.Evidence(u.Item, 3),
		})
	}
	open := ledger.SyncRound(out.Iterations, props)
	if len(reliableItems) > 0 {
		for _, sg := range open {
			if v, ok := reliableItems[sg.Item()]; ok && v == sg.New {
				// The update is forced by every card-minimal repair: accept
				// it without bothering the operator.
				if _, aerr := ledger.Accept(sg.ID, "auto:reliable", sg.Seq); aerr != nil {
					return false, nil, aerr
				}
			}
		}
		open = ledger.Open()
	}
	if len(open) == 0 {
		// Every update of the proposed repair carries a decision: the
		// repair is accepted.
		return true, res, nil
	}
	review := len(open)
	if s.ReviewPerIteration > 0 && s.ReviewPerIteration < review {
		review = s.ReviewPerIteration
	}
	cBefore := ledger.Counters()
	jBefore := ledger.JournalLen()
	derr := decider.Decide(ctx, ledger, open[:review])
	if span := obs.FromContext(ctx); span != nil {
		for _, ev := range ledger.JournalSince(jBefore) {
			if ev.Kind == repair.KindProposed {
				continue
			}
			d := span.StartChild("repair.decision")
			d.SetInt("suggestion", ev.Suggestion.ID)
			d.SetStr("state", string(ev.Kind))
			if by := ev.Suggestion.DecidedBy; by != "" {
				d.SetStr("by", by)
			}
			d.End()
		}
	}
	if derr != nil {
		return false, nil, derr
	}
	cAfter := ledger.Counters()
	// Done only when the queue drained with nothing but accepts this
	// round: a reject or revert changed the pin set, so the repair must be
	// recomputed; an undecided remainder (ReviewPerIteration) re-solves
	// under the new pins first, exactly the paper's early-restart choice.
	done = ledger.OpenCount() == 0 &&
		cAfter.Rejected == cBefore.Rejected &&
		cAfter.Reverted == cBefore.Reverted
	return done, res, nil
}

// finish verifies the accepted repair row-by-row on the prepared problem,
// materializes the repaired database through the overlay (the session's
// input database stays untouched), and closes the outcome's counters from
// the ledger.
func (s *Session) finish(out *Outcome, prob *core.Problem, statsBefore core.ProblemStats, res *core.Result, ledger *repair.Ledger) (*Outcome, error) {
	if err := prob.VerifyRepair(res.Repair, 1e-6); err != nil {
		return nil, err
	}
	repaired, err := repair.NewOverlay(s.DB, ledger).Materialize()
	if err != nil {
		return nil, err
	}
	out.Repaired = repaired
	out.Final = res.Repair
	c := ledger.Counters()
	out.Examined = c.Examined
	out.Accepted = c.Accepted
	out.Rejected = c.Rejected
	out.AutoAccepted = c.AutoAccepted
	out.Forced = ledger.Pins()
	out.Ledger = ledger
	out.Suggestions = ledger.List()
	stats := prob.Stats()
	out.ComponentsSolved = stats.ComponentsSolved - statsBefore.ComponentsSolved
	out.ComponentsReused = stats.ComponentsReused - statsBefore.ComponentsReused
	return out, nil
}
