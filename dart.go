// Package dart is the public facade of the DART reproduction (Fazzinga,
// Flesca, Furfaro, Parisi: "DART: A Data Acquisition and Repairing Tool",
// EDBT 2006): robust acquisition of tabular data from heterogeneous
// documents, with detection and card-minimal repair of acquisition errors
// driven by steady aggregate constraints.
//
// The Pipeline type mirrors the paper's two macro-modules (Fig. 2):
//
//   - the acquisition and extraction module converts the input document to
//     HTML, extracts row pattern instances with the metadata-driven wrapper,
//     and generates a relational database instance;
//   - the repairing module grounds the steady aggregate constraints,
//     compiles the card-minimal repair problem into a mixed-integer linear
//     program (Section 5), solves it with the built-in MILP solver, and
//     drives the operator validation loop (Section 6.3).
//
// Quick start:
//
//	md, _ := dart.ParseMetadata(metadataText)
//	p := &dart.Pipeline{Metadata: md}
//	res, _ := p.Process(documentHTML)
//	fmt.Println(res.Repaired)
package dart

import (
	"context"
	"fmt"
	"slices"

	"dart/internal/aggrcons"
	"dart/internal/convert"
	"dart/internal/core"
	"dart/internal/dbgen"
	"dart/internal/metadata"
	"dart/internal/obs"
	"dart/internal/relational"
	"dart/internal/repair"
	"dart/internal/validate"
	"dart/internal/wrapper"
)

// Re-exported types: the facade's vocabulary for building and inspecting
// pipelines without importing internal packages directly.
type (
	// Metadata is the acquisition designer's configuration.
	Metadata = metadata.Metadata
	// Database is a relational database instance.
	Database = relational.Database
	// Repair is a set of atomic value updates restoring consistency.
	Repair = core.Repair
	// Update is one atomic value update.
	Update = core.Update
	// Item addresses one database value.
	Item = core.Item
	// Solver computes repairs; see MILPSolver and friends in internal/core.
	Solver = core.Solver
	// Operator validates proposed updates.
	Operator = validate.Operator
	// OracleOperator is an operator that knows the ground truth.
	OracleOperator = validate.OracleOperator
	// InteractiveOperator prompts a human on an io stream pair.
	InteractiveOperator = validate.InteractiveOperator
	// Violation is one unsatisfied ground constraint.
	Violation = aggrcons.Violation
	// Instance is one extracted row pattern instance.
	Instance = wrapper.Instance
	// Skipped describes a document row no pattern matched.
	Skipped = wrapper.Skipped
	// RowError describes an instance the database generator dropped.
	RowError = dbgen.RowError
	// StringRepair records a wrapper-level correction of a non-numerical
	// string against its domain.
	StringRepair = wrapper.Correction
	// ValidationOutcome reports the finished operator loop.
	ValidationOutcome = validate.Outcome
	// Suggestion is one auditable repair record of a validation session.
	Suggestion = repair.Suggestion
	// Decider decides open suggestions round by round; Operator-based
	// review, journal replay, and the dartd workbench all implement it.
	Decider = repair.Decider
	// Ledger collects a session's suggestions and decision journal.
	Ledger = repair.Ledger
)

// ParseMetadata parses a designer metadata file.
func ParseMetadata(src string) (*Metadata, error) { return metadata.Parse(src) }

// NewMILPSolver returns the paper's repair solver: card-minimal repair via
// the S*(AC) mixed-integer program (reduced formulation).
func NewMILPSolver() Solver { return &core.MILPSolver{Formulation: core.FormulationReduced} }

// SolverNamed returns the repair solver called name: milp (also ""),
// milp-literal, cardsearch, greedy-aggregate or greedy-local.
func SolverNamed(name string) (Solver, error) {
	switch name {
	case "", "milp":
		return NewMILPSolver(), nil
	case "milp-literal":
		return &core.MILPSolver{Formulation: core.FormulationLiteral}, nil
	case "cardsearch":
		return &core.CardinalitySearchSolver{}, nil
	case "greedy-aggregate":
		return &core.GreedyAggregateSolver{}, nil
	case "greedy-local":
		return &core.GreedyLocalSolver{}, nil
	default:
		return nil, fmt.Errorf("unknown solver %q", name)
	}
}

// Pipeline wires the DART architecture for one document class.
type Pipeline struct {
	// Metadata configures extraction and repairing (required).
	Metadata *Metadata
	// Solver computes repairs (default: NewMILPSolver()).
	Solver Solver
	// Operator validates proposed repairs; nil accepts the first computed
	// repair without supervision (fully automatic mode) unless a Decider is
	// set.
	Operator Operator
	// Decider, when non-nil, drives the validation loop directly at the
	// suggestion-ledger level (journal replay, HTTP workbench); it takes
	// precedence over Operator.
	Decider Decider
	// Ledger, when non-nil, is adopted by the validation session instead of
	// a fresh one — the resume path for sessions restored from a journal.
	Ledger *Ledger
	// ReviewPerIteration restarts the repair computation after this many
	// validations (0 = review whole repairs).
	ReviewPerIteration int
}

// Acquisition is the output of the acquisition and extraction module.
type Acquisition struct {
	// HTML is the normalized document the wrapper consumed.
	HTML string
	// Instances are the extracted row pattern instances.
	Instances []*Instance
	// SkippedRows are document rows no pattern matched acceptably.
	SkippedRows []Skipped
	// RowErrors are instances the database generator could not convert.
	RowErrors []RowError
	// Database is the generated (possibly inconsistent) instance.
	Database *Database
	// Violations are the unsatisfied ground constraints of Database.
	Violations []Violation
	// StringRepairs lists the dictionary corrections the wrapper applied to
	// non-numerical strings during extraction (Section 6.2).
	StringRepairs []StringRepair

	// grounding is the ground set Violations came from; RepairContext
	// translates it instead of grounding Database again.
	grounding *aggrcons.Grounding
}

// Consistent reports whether the acquired database already satisfies the
// constraints.
func (a *Acquisition) Consistent() bool { return len(a.Violations) == 0 }

// Result is the output of the full pipeline.
type Result struct {
	Acquisition *Acquisition
	// Repair is the accepted repair (empty for consistent acquisitions).
	Repair *Repair
	// Repaired is the final consistent database.
	Repaired *Database
	// Validation reports the operator loop (nil without an Operator).
	Validation *ValidationOutcome
	// ComponentsSolved and ComponentsReused count component-level solver
	// work: how many violated connected components were solved, and how
	// many of those re-solves the prepared problem served from its memo
	// without solver work (nonzero only in multi-iteration operator loops).
	ComponentsSolved, ComponentsReused int
	// SolverNodes totals the branch-and-bound nodes explored by the repair
	// solver.
	SolverNodes int
}

// Acquire runs the acquisition and extraction module: format detection and
// conversion, wrapping, database generation, and consistency checking.
func (p *Pipeline) Acquire(src string) (*Acquisition, error) {
	return p.AcquireContext(context.Background(), src)
}

// AcquireContext is Acquire with a context: acquisition stages are fast, so
// the context is checked between stages rather than within them.
func (p *Pipeline) AcquireContext(ctx context.Context, src string) (*Acquisition, error) {
	if p.Metadata == nil {
		return nil, fmt.Errorf("dart: pipeline has no metadata")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Each stage is one "stage.<name>" span under ctx's span (nil, and
	// free, when ctx carries none); the stage spans are the pipeline's only
	// timing source.
	parent := obs.FromContext(ctx)
	sp := parent.StartChild("stage.convert")
	html, err := convert.ToHTML(src, convert.Detect(src))
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("dart: format conversion: %w", err)
	}
	w := p.Metadata.NewWrapper()
	sp = parent.StartChild("stage.wrapper")
	instances, skipped, err := w.Extract(html)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("dart: extraction: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp = parent.StartChild("stage.dbgen")
	db, rowErrs, err := p.Metadata.NewGenerator().Generate(instances)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("dart: database generation: %w", err)
	}
	// The check grounds the database once; the acquisition keeps the
	// grounding for the repairing module.
	sp = parent.StartChild("stage.check")
	g, err := aggrcons.NewGrounding(db, p.Metadata.Constraints())
	var viols []Violation
	if err == nil {
		viols, err = g.Violations(1e-9)
	}
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("dart: consistency check: %w", err)
	}
	var repairs []StringRepair
	for _, in := range instances {
		repairs = append(repairs, in.Corrections()...)
	}
	return &Acquisition{
		HTML:          html,
		Instances:     instances,
		SkippedRows:   skipped,
		RowErrors:     rowErrs,
		Database:      db,
		Violations:    viols,
		StringRepairs: repairs,
		grounding:     g,
	}, nil
}

// Repair runs the repairing module on an acquired database, including the
// operator validation loop when an Operator is configured.
func (p *Pipeline) Repair(acq *Acquisition) (*Result, error) {
	return p.RepairContext(context.Background(), acq)
}

// RepairContext is Repair with a context: with a cancellation-aware solver
// (the default MILP solver is one) a long solve aborts with ctx.Err() at
// the next branch-and-bound node once ctx is done.
//
// The repair problem is prepared (translated into rows and decomposed)
// exactly once, from the grounding the acquisition's check built; an
// acquisition without one, or whose Database was replaced, is grounded
// here. The solve — and, with an Operator, every iteration of the
// validation loop — re-solves the prepared problem. Without an Operator
// or a Decider the solver's repair is checked against every row at
// absolute tolerance 1e-6, which accepts exactly what re-checking the
// repaired database would, and applied to a copy of Database
// (Problem.Repaired). Under ctx's span the repairing module is one
// "stage.solver" span holding one "stage.prepare" span and a
// "stage.resolve" span per repair computation.
func (p *Pipeline) RepairContext(ctx context.Context, acq *Acquisition) (*Result, error) {
	res := &Result{Acquisition: acq}
	solver := p.Solver
	if solver == nil {
		solver = NewMILPSolver()
	}
	if acq.Consistent() {
		res.Repair = &core.Repair{}
		res.Repaired = acq.Database
		return res, nil
	}
	solverSpan := obs.FromContext(ctx).StartChild("stage.solver")
	sctx := obs.ContextWithSpan(ctx, solverSpan)
	prepSpan := solverSpan.StartChild("stage.prepare")
	prob, err := p.prepare(acq)
	if prepSpan != nil && err == nil {
		prepSpan.SetInt("vars", prob.N())
		prepSpan.SetInt("rows", len(prob.System().Rows))
	}
	prepSpan.End()
	if err != nil {
		solverSpan.End()
		return nil, fmt.Errorf("dart: repair: %w", err)
	}
	if p.Operator == nil && p.Decider == nil {
		resolveSpan := solverSpan.StartChild("stage.resolve")
		r, err := solver.SolveProblem(obs.ContextWithSpan(sctx, resolveSpan), prob, nil)
		resolveSpan.End()
		solverSpan.End()
		if err != nil {
			return nil, fmt.Errorf("dart: repair: %w", err)
		}
		if r.Repair == nil {
			return nil, fmt.Errorf("dart: no repair found (status %v)", r.Status)
		}
		repaired, err := prob.Repaired(r.Repair)
		if err != nil {
			return nil, err
		}
		res.Repair = r.Repair
		res.Repaired = repaired
		res.ComponentsSolved = r.Components - r.ComponentsReused
		res.ComponentsReused = r.ComponentsReused
		res.SolverNodes = r.Nodes
		return res, nil
	}
	session := &validate.Session{
		DB:                 acq.Database,
		Constraints:        p.Metadata.Constraints(),
		Solver:             solver,
		Operator:           p.Operator,
		Decider:            p.Decider,
		Ledger:             p.Ledger,
		Problem:            prob,
		Context:            sctx,
		ReviewPerIteration: p.ReviewPerIteration,
	}
	out, err := session.Run()
	solverSpan.End()
	if err != nil {
		return nil, fmt.Errorf("dart: validation loop: %w", err)
	}
	res.Repair = out.Final
	res.Repaired = out.Repaired
	res.Validation = out
	res.ComponentsSolved = out.ComponentsSolved
	res.ComponentsReused = out.ComponentsReused
	res.SolverNodes = out.SolverNodes
	return res, nil
}

// prepare translates the acquisition's grounding into the repair problem,
// grounding acq.Database first when the acquisition carries no grounding
// of it under the pipeline's constraints.
func (p *Pipeline) prepare(acq *Acquisition) (*core.Problem, error) {
	acs := p.Metadata.Constraints()
	g := acq.grounding
	if g == nil || g.Database() != acq.Database || !slices.Equal(g.Constraints(), acs) {
		var err error
		if g, err = aggrcons.NewGrounding(acq.Database, acs); err != nil {
			return nil, err
		}
	}
	return core.PrepareGrounded(g)
}

// Process runs the complete pipeline on one document.
func (p *Pipeline) Process(src string) (*Result, error) {
	return p.ProcessContext(context.Background(), src)
}

// ProcessContext runs the complete pipeline on one document under a
// context; deadlines cancel long MILP solves mid-search.
func (p *Pipeline) ProcessContext(ctx context.Context, src string) (*Result, error) {
	acq, err := p.AcquireContext(ctx, src)
	if err != nil {
		return nil, err
	}
	return p.RepairContext(ctx, acq)
}
