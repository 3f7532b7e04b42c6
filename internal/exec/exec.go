// Package exec drives physical plans through the GES execution engine
// (§2.1, Execution Engine). It implements the three engine variants the
// paper evaluates — GES (flat), GES_f (factorized) and GES_f* (factorized
// with operator fusion) — plus per-operator timing, peak intermediate-result
// memory accounting (Table 2, Figure 3), and the worker-pool runtime for
// inter-query parallelism (Figure 13).
package exec

import (
	"fmt"
	"time"

	"ges/internal/core"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/vector"
)

// Mode selects the engine variant.
type Mode int

// Engine variants of the paper's ablation study (§6.1).
const (
	// ModeFlat is the baseline GES: every operator's output is de-factored
	// into a fully materialized one-node tree of tuples.
	ModeFlat Mode = iota
	// ModeFactorized is GES_f: operators run natively over the f-Tree,
	// de-factoring only when blocking logic demands it.
	ModeFactorized
	// ModeFused is GES_f*: ModeFactorized plus the operator-fusion rewrite
	// rules.
	ModeFused
)

// String returns the paper's name for the variant.
func (m Mode) String() string {
	switch m {
	case ModeFlat:
		return "GES"
	case ModeFactorized:
		return "GES_f"
	case ModeFused:
		return "GES_f*"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// OpStat records one operator's contribution to a query execution.
type OpStat struct {
	Name     string
	Duration time.Duration
	OutRows  int // logical rows of the produced f-Tree (tuple count)
	MemBytes int // accounted size of the produced f-Tree
}

// Result is a completed query execution.
type Result struct {
	Block    *core.FlatBlock
	OpStats  []OpStat
	PeakMem  int
	Duration time.Duration
}

// Engine executes plans against a storage view in one of the three variant
// modes.
type Engine struct {
	Mode Mode
	Pool *storage.Pool
	// MaxRows bounds defensive materialization (0 = unlimited).
	MaxRows int
	// CollectStats enables per-operator timing and sizing; benchmarks that
	// only need end-to-end latency leave it off to avoid perturbation.
	CollectStats bool
}

// New returns an engine in the given mode with a fresh memory pool.
func New(mode Mode) *Engine {
	return &Engine{Mode: mode, Pool: storage.NewPool()}
}

// Physical returns the plan an engine in mode runs for a plan whose
// parameters are bound (cypher.Cache.Prepare): in ModeFused, the fusion
// rewrite. Engine.Run and every EXPLAIN go through it, so a printed plan is
// the one that runs.
func Physical(mode Mode, p plan.Plan) plan.Plan {
	if mode == ModeFused {
		p = plan.Fuse(p)
	}
	return p
}

// Run executes the plan and returns its result: the final tree de-factored
// (op.Defactor) and boxed into a flat block once.
func (e *Engine) Run(view storage.View, p plan.Plan) (*Result, error) {
	p = Physical(e.Mode, p)
	// The arena brackets plan execution: operators draw all scratch from
	// it, and once the result is boxed into row values (which alias no
	// arena memory) everything goes back to the engine's shared pool in one
	// wholesale release — even on error paths. The arena struct itself is
	// recycled too, so its ownership-tracking slices keep their capacity
	// across queries.
	arena := e.Pool.GetArena()
	defer e.Pool.PutArena(arena)
	ctx := &op.Ctx{View: view, Arena: arena, MaxRows: e.MaxRows}
	start := time.Now()

	var ft *core.FTree
	var err error
	res := &Result{}
	for i, o := range p {
		var opStart time.Time
		if e.CollectStats {
			opStart = time.Now()
		}
		ft, err = o.Execute(ctx, ft)
		// The flat baseline de-factors after every operator, exactly like a
		// classical tuple-pipeline engine.
		if err == nil && e.Mode == ModeFlat && ft.NumNodes() > 1 {
			ft, err = flatten(ctx, ft)
		}
		if err != nil {
			return nil, fmt.Errorf("exec: %s (op %d): %w", o.Name(), i, err)
		}
		ctx.Observe(ft)
		// Debug builds (-tags gesassert) re-verify the factorized
		// representation between every pair of operators.
		if core.AssertEnabled {
			core.CheckFTree(ft)
		}
		if e.CollectStats {
			res.OpStats = append(res.OpStats, OpStat{
				Name:     o.Name(),
				Duration: time.Since(opStart),
				OutRows:  int(ft.CountTuples()),
				MemBytes: ft.MemBytes(),
			})
		}
	}
	if ft == nil {
		return nil, fmt.Errorf("exec: empty plan")
	}
	if ft, err = flatten(ctx, ft); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	ctx.Observe(ft)
	res.Block = box(ft)
	res.PeakMem = ctx.PeakMem
	res.Duration = time.Since(start)
	return res, nil
}

// flatten de-factors ft into a one-node tree of its columns (op.Defactor).
func flatten(ctx *op.Ctx, ft *core.FTree) (*core.FTree, error) {
	return (&op.Defactor{}).Execute(ctx, ft)
}

// box renders the valid rows of a one-node tree as boxed values: the result
// form every reader of a Result takes, and the only place a query's rows are
// boxed.
func box(ft *core.FTree) *core.FlatBlock {
	root, cols := ft.Root, ft.Root.Block.Columns()
	kinds := make([]vector.Kind, len(cols))
	for c, col := range cols {
		kinds[c] = col.Kind
	}
	out := core.NewFlatBlock(root.Block.Schema(), kinds)
	n, w := root.Sel.Count(), len(cols)
	vals := make([]vector.Value, n*w)
	out.Rows = make([][]vector.Value, 0, n)
	for r := root.Sel.NextSet(0); r >= 0; r = root.Sel.NextSet(r + 1) {
		row := vals[:w:w]
		vals = vals[w:]
		for c, col := range cols {
			row[c] = col.Get(r)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}
