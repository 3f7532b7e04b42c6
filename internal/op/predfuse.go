package op

import (
	"fmt"
	"slices"

	"ges/internal/catalog"
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
// are never materialized. Column names in the expression are vertex
// property names (or ExtIDProp). The value is immutable: an Expand binds it
// when it starts (vertexFilter, its one evaluator), and a name no label
// defines fails the query there.
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

// Expr returns the predicate's expression, whose column names are property
// names or ExtIDProp.
func (p *VertexPred) Expr() expr.Expr { return p.pred }

// resolve returns one getter per name p reads, in p.names order.
func (p *VertexPred) resolve(view storage.View) ([]*propGetter, error) {
	getters := make([]*propGetter, len(p.names))
	for i, name := range p.names {
		if name == ExtIDProp {
			getters[i] = extIDGetter
			continue
		}
		g, err := newPropGetter(view, name)
		if err != nil {
			return nil, err
		}
		getters[i] = g
	}
	return getters, nil
}

// extIDGetter is the resolution of ExtIDProp: it defines no label, so the
// batch face gathers external IDs for it.
var extIDGetter = &propGetter{name: ExtIDProp, kind: vector.KindInt64}

// vertexFilter is a VertexPred bound for one Expand execution, applied to
// the candidates of one NeighborsBatch at a time.
//
// Its batch face: column i of block gathers getters[i] over labels[i], and
// conjs compile against the block. A single-label string column shares that
// label's dictionary, so an equality or IN on it compares codes. Under
// AnyLabel a name several labels define narrows per batch to the labels its
// pieces carry, and the face is rebuilt when a string name's labels change.
type vertexFilter struct {
	pred     expr.Expr
	getters  []*propGetter // one per name pred reads
	labels   [][]catalog.LabelProp
	anyLabel bool
	present  uint64 // the piece labels labels[i] were narrowed to
	sel      *vector.Bitset
	block    *core.FBlock
	conjs    []conjunct
}

// filter binds p for one execution over ctx's view, each name read from
// the labels among dst that define it (every one under AnyLabel); nil when
// p is nil. The face is built here, so a predicate that does not compile
// fails the query before any batch runs.
func (p *VertexPred) filter(ctx *Ctx, dst catalog.LabelID) (*vertexFilter, error) {
	if p == nil {
		return nil, nil
	}
	getters, err := p.resolve(ctx.View)
	if err != nil {
		return nil, err
	}
	f := &vertexFilter{pred: p.pred, getters: getters, labels: make([][]catalog.LabelProp, len(getters)),
		anyLabel: dst == storage.AnyLabel, sel: ctx.Arena.OwnBitset(0, true)}
	for i, g := range getters {
		for _, lp := range g.labels {
			if f.anyLabel || lp.Label == dst {
				f.labels[i] = append(f.labels[i], lp)
			}
		}
	}
	return f, f.build(ctx)
}

// build (re)creates the face over the current labels. The scratch columns
// keep their pointers from batch to batch (Grow resizes in place), so the
// compiled conjuncts stay bound to them.
func (f *vertexFilter) build(ctx *Ctx) (err error) {
	f.block = ctx.NewFBlock()
	for i, g := range f.getters {
		f.block.AddColumn(g.newGatherOutput(ctx, g.name, f.labels[i]))
	}
	f.conjs, err = compileConjuncts(f.pred, f.block, nil)
	return err
}

// mustBuild rebuilds the face after filter has built it once. Compiling
// depends only on the column names and kinds, which no narrowing changes, so
// an error here is a broken invariant, not a query error.
func (f *vertexFilter) mustBuild(ctx *Ctx) {
	if err := f.build(ctx); err != nil {
		panic(fmt.Sprintf("op: fused predicate failed to recompile: %v", err))
	}
}

// keep evaluates the predicate over every candidate of b's runs at once
// (§5) and reports which pass, as a bitset over the pieces' candidates taken
// in piece order, valid until the next call; nil when there is no predicate.
// Names narrow first, each name is then gathered once for every candidate,
// and the conjunct kernels run over the whole batch.
func (f *vertexFilter) keep(ctx *Ctx, b *storage.Batch) *vector.Bitset {
	if f == nil {
		return nil
	}
	n := 0
	for _, pc := range b.Pieces {
		n += pc.Len()
	}
	f.sel.Reinit(n, true)
	if n == 0 {
		return f.sel
	}
	cands := ctx.Arena.GetVIDs(n)
	defer ctx.Arena.PutVIDs(cands)
	var present uint64
	for _, pc := range b.Pieces {
		cands = append(cands, b.PieceVIDs(pc)...)
		present |= labelBit(pc.Label)
	}
	f.narrow(ctx, present)
	// Every candidate is still selected, so the gathers take no selection.
	for i, col := range f.block.Columns() {
		col.Grow(n)
		if f.getters[i] == extIDGetter {
			ctx.View.GatherExtIDs(cands, nil, col.Int64s())
		}
		for _, lp := range f.labels[i] {
			ctx.View.GatherProps(cands, lp.Label, lp.Prop, nil, col)
		}
	}
	filterRows(f.conjs, f.sel, n)
	return f.sel
}

// narrow points labels[i], under AnyLabel, at the labels of getters[i] the
// batch's pieces carry (present, their labelBit mask), so each name gathers
// only over labels some candidate carries, and a string name left with one
// label compares its dictionary codes. Only a string column's face depends
// on its labels, so only its change rebuilds the face.
func (f *vertexFilter) narrow(ctx *Ctx, present uint64) {
	if !f.anyLabel || present == f.present {
		return
	}
	f.present = present
	rebuild := false
	for i, g := range f.getters {
		next := slices.DeleteFunc(slices.Clone(g.labels), func(lp catalog.LabelProp) bool { return present&labelBit(lp.Label) == 0 })
		if len(g.labels) > 1 && !slices.Equal(next, f.labels[i]) {
			f.labels[i] = next
			rebuild = rebuild || g.kind == vector.KindString
		}
	}
	if rebuild {
		f.mustBuild(ctx)
	}
}

// labelBit is label l's bit in a mask of labels; the labels from 63 up share
// the top bit, so a mask may over-report them, never under-report.
func labelBit(l catalog.LabelID) uint64 { return 1 << min(l, 63) }
