package queries

import (
	"fmt"
	"time"

	"ges/internal/core"
	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/txn"
)

// Engine abstracts plan execution so the workload can run on either the
// GES engine (exec.Engine, in any of its three variant modes) or the
// tuple-at-a-time volcano comparison engine.
type Engine interface {
	Run(view storage.View, p plan.Plan) (*exec.Result, error)
}

// Runner executes workload queries against one dataset: plan queries run
// through the engine and stored procedures directly, both over a pinned
// snapshot, and updates run through the transaction manager. A Runner is safe for
// concurrent use — the engine and manager are; per-call state is local.
type Runner struct {
	DS     *ldbc.Dataset
	Mgr    *txn.Manager
	Engine Engine
}

// NewRunner wires a runner for the dataset in the given engine mode. When
// mgr is nil the runner uses the dataset graph's transaction manager
// (txn.NewManager).
func NewRunner(ds *ldbc.Dataset, mode exec.Mode, mgr *txn.Manager) *Runner {
	return NewRunnerWith(ds, exec.New(mode), mgr)
}

// NewRunnerWith wires a runner around an explicit engine implementation.
func NewRunnerWith(ds *ldbc.Dataset, eng Engine, mgr *txn.Manager) *Runner {
	if mgr == nil {
		mgr = txn.NewManager(ds.Graph)
	}
	return &Runner{DS: ds, Mgr: mgr, Engine: eng}
}

// Execute runs one query invocation and returns its result block (nil for
// updates) and the engine result when a plan was executed. Reads run on a
// snapshot pinned for the call, so no reseal folds a commit made meanwhile
// into what they read.
func (r *Runner) Execute(q *Query, p Params) (*core.FlatBlock, *exec.Result, error) {
	if q.Build != nil || q.Proc != nil {
		snap := r.Mgr.AcquireSnapshot()
		defer r.Mgr.Release(snap)
		return r.read(snap, q, p)
	}
	if q.Update == nil {
		return nil, nil, fmt.Errorf("%s: query has no implementation", q.Name)
	}
	start := time.Now()
	if err := q.Update(r.Mgr, r.DS, p); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", q.Name, err)
	}
	return nil, &exec.Result{Duration: time.Since(start)}, nil
}

// read runs a plan query or a stored procedure on view.
func (r *Runner) read(view storage.View, q *Query, p Params) (*core.FlatBlock, *exec.Result, error) {
	if q.Build != nil {
		res, err := r.Engine.Run(view, q.Build(r.DS.H, p))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		return res.Block, res, nil
	}
	start := time.Now()
	fb, err := q.Proc(view, r.DS.H, p)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", q.Name, err)
	}
	return fb, &exec.Result{Block: fb, Duration: time.Since(start), PeakMem: fb.MemBytes()}, nil
}
