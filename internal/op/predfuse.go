package op

import (
	"slices"

	"ges/internal/core"
	"ges/internal/expr"
	"ges/internal/storage"
	"ges/internal/vector"
)

// ExtIDProp is the pseudo-property name a VertexPred maps to a vertex's
// external identifier.
const ExtIDProp = "@id"

// VertexPred is the FilterPushDown predicate (§4.3, §5): an Expand applies
// it to candidate neighbors by their own vertex data, so rejected neighbors
// are never materialized, and a VarLengthExpand to the vertices it emits.
// Column names in the expression are vertex property names (or ExtIDProp).
// The value is immutable: operators bind it when they start, and a name no
// label defines fails the query there.
type VertexPred struct {
	pred  expr.Expr
	names []string // the distinct names pred reads
}

// VertexPropPred returns the fused predicate over pred, whose column names
// the planner has already rewritten to property names.
func VertexPropPred(pred expr.Expr) *VertexPred {
	names := pred.Columns(nil)
	slices.Sort(names)
	return &VertexPred{pred: pred, names: slices.Compact(names)}
}

// Bind compiles the predicate for one vertex at a time: the getter's row
// index is the VID of the vertex to test. It holds no state, so goroutines
// share it. It is the per-candidate path, and the volcano oracle's. A nil
// VertexPred binds to a nil getter: there is nothing to test.
func (p *VertexPred) Bind(view storage.View) (expr.Getter, error) {
	if p == nil {
		return nil, nil
	}
	return p.bind(&vertexBinding{view: view})
}

// bind resolves each name p reads once, into b.getters (where the fused
// Expand's batch face gathers them from), and compiles the per-vertex test
// through b.
func (p *VertexPred) bind(b *vertexBinding) (expr.Getter, error) {
	for _, name := range p.names {
		g := extIDGetter
		if name != ExtIDProp {
			var err error
			if g, err = newPropGetter(b.view, name); err != nil {
				return nil, err
			}
		}
		b.getters = append(b.getters, g)
	}
	return expr.Bind(p.pred, b)
}

// vertexBinding binds predicate column names, resolved into getters, to
// property reads of the vertex whose VID is the row index.
type vertexBinding struct {
	view    storage.View
	getters []*propGetter
}

// extIDGetter is the resolution of ExtIDProp: it defines no label, so the
// batch face gathers external IDs for it and prunes no zones.
var extIDGetter = &propGetter{name: ExtIDProp, kind: vector.KindInt64}

// Bind implements expr.Binding. A getter bound here reads one candidate
// vertex — a run shorter than batchPredMinRows, a var-length emission, the
// oracle — so there is no column to gather over and the scalar View calls
// are deliberate.
//
//geslint:scalar-ok
func (b *vertexBinding) Bind(name string) (expr.Getter, error) {
	// VertexPred.bind resolved every name the expression reads.
	view, g := b.view, b.getters[slices.IndexFunc(b.getters, func(g *propGetter) bool { return g.name == name })]
	if g == extIDGetter {
		return func(v int) vector.Value { return vector.Int64(view.ExtID(vector.VID(v))) }, nil
	}
	return func(v int) vector.Value { return g.get(vector.VID(v)) }, nil
}

// vertexFilter is a VertexPred bound for one Expand execution, as one
// goroutine applies it to runs of candidate neighbors.
type vertexFilter struct {
	pred  expr.Expr
	bound vertexBinding  // every name resolved; read-only, shared by forks
	test  expr.Getter    // likewise
	sel   *vector.Bitset // keep's answer, reused run to run

	// The batch face, built by the first run of batchPredMinRows: column i
	// of block gathers bound.getters[i], and the conjuncts compile against
	// the block.
	built bool
	block *core.FBlock
	conjs []conjunct
	// Most fused predicates reference one or two names.
	getterBuf [2]*propGetter
	conjBuf   [2]conjunct
}

// batchPredMinRows is the candidate count below which per-row tests beat the
// batch setup cost. The unit is one neighbor run, on purpose: a scratch
// prototype that evaluated the predicate once per morsel (all runs of a
// NeighborsBatch together) was 5–8 % slower on the benchmark's ldbc_mix —
// its runs hold 1–5 candidates, and gather + overlay patch + mask conversion
// over the lot cost more than a test that short-circuits on the first
// failing conjunct.
const batchPredMinRows = 16

// filter binds p for one execution over ctx's view; nil when p is nil.
func (p *VertexPred) filter(ctx *Ctx) (*vertexFilter, error) {
	if p == nil {
		return nil, nil
	}
	f := &vertexFilter{pred: p.pred, sel: ctx.Arena.OwnBitset(0, true)}
	f.bound = vertexBinding{view: ctx.View, getters: f.getterBuf[:0]}
	var err error
	if f.test, err = p.bind(&f.bound); err != nil {
		return nil, err
	}
	return f, nil
}

// fork returns the instance for one morsel of several: the binding is
// shared, the batch scratch is its own.
func (f *vertexFilter) fork(ctx *Ctx) *vertexFilter {
	return &vertexFilter{pred: f.pred, bound: f.bound, test: f.test, sel: ctx.Arena.OwnBitset(0, true)}
}

// keep reports which candidates of one neighbor run pass, as a bitset over
// run positions valid until the next call; nil when there is no predicate.
// A run shorter than batchPredMinRows tests each candidate. A longer one is
// evaluated in batch (§5): range conjuncts first drop candidates whose
// storage zone cannot match, each referenced property is then gathered once
// for the survivors, and the conjunct kernels run over the run.
func (f *vertexFilter) keep(ctx *Ctx, cands []vector.VID) *vector.Bitset {
	if f == nil {
		return nil
	}
	f.sel.Reinit(len(cands), true)
	if len(cands) < batchPredMinRows || !f.batchReady(ctx) {
		for k, v := range cands {
			if !f.test(int(v)).AsBool() {
				f.sel.Clear(k)
			}
		}
		return f.sel
	}
	if zp, ok := ctx.View.(storage.ZonePruner); ok {
		for i := range f.conjs {
			c := &f.conjs[i]
			if c.kernel != kernRange || c.negate {
				continue
			}
			for _, lp := range f.bound.getters[slices.Index(f.block.Columns(), c.col)].labels {
				pruned, total := zp.PruneZones(cands, lp.Label, lp.Prop, c.lo, c.hi, f.sel)
				ctx.Gather.ZonesPruned.Add(int64(pruned))
				ctx.Gather.ZonesTotal.Add(int64(total))
			}
		}
	}
	for i, col := range f.block.Columns() {
		col.Grow(len(cands))
		g := f.bound.getters[i]
		if g == extIDGetter {
			ctx.View.GatherExtIDs(cands, f.sel, col.Int64s())
		}
		for _, lp := range g.labels {
			ctx.View.GatherProps(cands, lp.Label, lp.Prop, f.sel, col)
		}
	}
	ctx.Gather.Gathers.Add(1)
	filterRows(ctx, f.conjs, f.sel, 0, len(cands))
	return f.sel
}

// batchReady builds the batch face on its first call and reports whether it
// exists. The scratch columns keep their pointers from run to run (Grow
// resizes in place), so compiled closures stay bound to them.
func (f *vertexFilter) batchReady(ctx *Ctx) bool {
	if !f.built {
		f.built = true
		f.block = ctx.NewFBlock()
		for _, g := range f.bound.getters {
			f.block.AddColumn(g.newGatherOutput(ctx, g.name, g.labels))
		}
		// bind compiled the same expression over the same names, so this
		// cannot fail; were it to, runs would be tested per candidate, with
		// the same answer.
		if conjs, err := compileConjuncts(f.pred, f.block, f.conjBuf[:0]); err == nil {
			f.conjs = conjs
		}
	}
	return f.conjs != nil
}

// RewriteCols returns a copy of e with every column reference renamed
// through the mapping (identity when absent).
func RewriteCols(e expr.Expr, rename map[string]string) expr.Expr {
	switch n := e.(type) {
	case expr.Col:
		if to, ok := rename[n.Name]; ok {
			return expr.Col{Name: to}
		}
		return n
	case expr.Cmp:
		return expr.Cmp{Op: n.Op, L: RewriteCols(n.L, rename), R: RewriteCols(n.R, rename)}
	case expr.And:
		return expr.And{L: RewriteCols(n.L, rename), R: RewriteCols(n.R, rename)}
	case expr.Or:
		return expr.Or{L: RewriteCols(n.L, rename), R: RewriteCols(n.R, rename)}
	case expr.Not:
		return expr.Not{X: RewriteCols(n.X, rename)}
	case expr.Arith:
		return expr.Arith{Op: n.Op, L: RewriteCols(n.L, rename), R: RewriteCols(n.R, rename)}
	case expr.In:
		return expr.In{X: RewriteCols(n.X, rename), List: n.List}
	case expr.StrPred:
		return expr.StrPred{Op: n.Op, L: RewriteCols(n.L, rename), R: n.R}
	default:
		return e
	}
}
