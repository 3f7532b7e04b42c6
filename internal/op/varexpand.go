package op

import (
	"sync"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/vector"
)

// VarLengthExpand extends each source vertex to all vertices reachable over
// between MinHops (at least 1) and MaxHops edges of one type — the
// KNOWS*1..2 pattern of the paper's running example (§4.3) — with the
// LDBC-typical distinct semantics: each reachable vertex appears once per
// source, at its shortest distance, and the source itself is excluded. The
// package's level-synchronous BFS (bfs.step) reads each level with one
// NeighborsBatch and stamps visits in a recycled array.
type VarLengthExpand struct {
	From, To string
	Et       catalog.EdgeTypeID
	Dir      catalog.Direction
	DstLabel catalog.LabelID
	MinHops  int
	MaxHops  int
}

// Name implements Operator.
func (o *VarLengthExpand) Name() string { return "VarLengthExpand" }

// Execute implements Operator.
func (o *VarLengthExpand) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	parent, fromCol, err := vidColumn(ft, o.From)
	if err != nil {
		return nil, err
	}
	return produceChild(ctx, ft, parent, childCols{to: o.To}, traverseBody{o, ctx, parent, fromCol}.rows), nil
}

// traverseBody is the var-length fill: one bounded traversal per valid
// parent row, emitted straight into the sink column.
type traverseBody struct {
	o       *VarLengthExpand
	ctx     *Ctx
	parent  *core.Node
	fromCol *vector.Column
}

func (b traverseBody) rows(s childSink) {
	total := 0
	for i := range s.index {
		start := total
		if b.parent.Valid(i) {
			b.o.Traverse(b.ctx, b.fromCol.VIDAt(i), func(v vector.VID) {
				s.toCol.AppendVID(v)
				total++
			})
		}
		s.index[i] = core.Range{Start: int32(start), End: int32(total)}
	}
}

// Traverse runs the bounded BFS from src, emitting every vertex it reaches
// within the hop bounds.
func (o *VarLengthExpand) Traverse(ctx *Ctx, src vector.VID, emit func(vector.VID)) {
	// The frontier buffers and the batch are transient scratch: emitted
	// values are copied into the sink, never retained.
	s := bfs{view: ctx.View, et: o.Et, dir: o.Dir, dstLabel: o.DstLabel, b: ctx.Arena.GetBatch(),
		front: ctx.Arena.GetVIDs(8), next: ctx.Arena.GetVIDs(8)}
	s.start(src)
	for int(s.level) < o.MaxHops && len(s.front) > 0 {
		if s.step(); int(s.level) >= o.MinHops {
			for _, v := range s.front {
				emit(v)
			}
		}
	}
	ctx.Arena.PutVIDs(s.front)
	ctx.Arena.PutVIDs(s.next)
	ctx.Arena.PutBatch(s.b)
	visits.Put(s.seen)
}

// visitSet is the level-synchronous BFS's visited set and the aggregate's
// dense VID-keyed group index: v is visited by the current pass iff
// stamp[v] == epoch, so the next pass starts with an epoch bump (reset), not
// a clear or an allocation. Each visited vertex keeps a slot: its level in a
// BFS, its group in a group table, its node in a path DAG. It grows to the
// highest VID reached (created vertices past the base range included) and is
// recycled across passes and queries.
type visitSet struct {
	stamp []uint32
	slots []int32 // slot of a visited v (mark)
	epoch uint32
}

var visits = sync.Pool{New: func() any { return new(visitSet) }}

// reset starts a pass with nothing visited.
func (s *visitSet) reset() {
	if s.epoch++; s.epoch == 0 { // wrapped: stale stamps could match
		clear(s.stamp)
		s.epoch = 1
	}
}

// mark visits v with slot n and reports whether this pass had not visited v
// yet; a visited v keeps its slot.
func (s *visitSet) mark(v vector.VID, n int32) bool {
	if int(v) >= len(s.stamp) {
		s.stamp = append(s.stamp, make([]uint32, int(v)+1-len(s.stamp))...)
		s.slots = append(s.slots, make([]int32, len(s.stamp)-len(s.slots))...)
	}
	if s.stamp[v] == s.epoch {
		return false
	}
	s.stamp[v], s.slots[v] = s.epoch, n
	return true
}

// at returns the slot of v and whether this pass visited v.
func (s *visitSet) at(v vector.VID) (int32, bool) {
	if int(v) >= len(s.stamp) || s.stamp[v] != s.epoch {
		return 0, false
	}
	return s.slots[v], true
}

// slot returns the slot of v, which becomes next when this pass has not
// visited v yet.
func (s *visitSet) slot(v vector.VID, next int32) int32 {
	if s.mark(v, next) {
		return next
	}
	return s.slots[v]
}
