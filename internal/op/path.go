package op

import (
	"ges/internal/catalog"
	"ges/internal/storage"
	"ges/internal/vector"
)

// bfs is the package's one level-synchronous breadth-first search, shared by
// the distinct VarLengthExpand and the path kernels of the stored procedures
// IC13 and IC14 (§6.1): a level is one NeighborsBatch over the whole
// frontier, as the paper's Expand reads neighbour lists (§4.3, §5), and seen
// stamps each reached vertex with its level.
type bfs struct {
	view        storage.View
	et          catalog.EdgeTypeID
	dir         catalog.Direction
	dstLabel    catalog.LabelID
	b           *storage.Batch
	seen        *visitSet // pooled; the caller puts it back
	front, next []vector.VID
	level       int32
}

// start begins the search at src, level 0, with a pooled visitSet (the one
// an earlier search of s drew, when there is one). A NilVID src is a frontier
// with no neighbours.
func (s *bfs) start(src vector.VID) {
	if s.seen == nil {
		s.seen = visits.Get().(*visitSet)
	}
	s.seen.reset()
	if src != vector.NilVID {
		s.seen.mark(src, 0)
	}
	s.front, s.level = append(s.front[:0], src), 0
}

// step grows the search by one level, read with one NeighborsBatch: the new
// frontier is every neighbour not reached yet, stamped with the new level, in
// frontier-then-adjacency order.
func (s *bfs) step() {
	s.level++
	s.view.NeighborsBatch(s.front, s.et, s.dir, s.dstLabel, false, s.b)
	next, seen := s.next[:0], s.seen
	for _, pc := range s.b.Pieces {
		for _, v := range s.b.PieceVIDs(pc) {
			if seen.mark(v, s.level) {
				next = append(next, v)
			}
		}
	}
	s.front, s.next = next, s.front
}

// ShortestPathLength returns the hop count of a shortest path from src to
// dst over (et, dir, dstLabel) adjacency, or -1 when there is none. Two
// searches, one from each end, grow the smaller frontier (src's on a tie) a
// level at a time and stop at the level that reaches a vertex the other has
// reached; the first such vertex gives the length.
func ShortestPathLength(view storage.View, src, dst vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID) int {
	if src == dst {
		return 0
	}
	a := &bfs{view: view, et: et, dir: dir, dstLabel: dstLabel, b: new(storage.Batch)}
	z := &bfs{view: view, et: et, dir: dir, dstLabel: dstLabel, b: a.b}
	a.start(src)
	z.start(dst)
	defer func() { visits.Put(a.seen); visits.Put(z.seen) }()
	for len(a.front) > 0 && len(z.front) > 0 {
		x, y := a, z
		if len(a.front) > len(z.front) {
			x, y = z, a
		}
		x.step()
		for _, v := range x.front {
			if d, ok := y.seen.at(v); ok {
				return int(x.level + d)
			}
		}
	}
	return -1
}

// PathDAG holds every shortest path from one vertex to another: node 0 is
// the source, and node i's successors — its neighbours one hop nearer the
// destination, in adjacency order — are Succ[Off[i]:Off[i+1]].
type PathDAG struct {
	Len       int          // hops on every path
	Nodes     []vector.VID // level by level from the source
	Succ, Off []int32
	dst       vector.VID
	index     *visitSet // each node's position in Nodes; pooled until Release
}

// ShortestPathDAG returns the DAG of the shortest paths from src to dst over
// (et, dir, dstLabel) adjacency, or false when there is none. A search from
// dst stamps distances and stops after the level that reaches src; the DAG is
// then read from src with one NeighborsBatch per level. Release returns its
// state.
func ShortestPathDAG(view storage.View, src, dst vector.VID, et catalog.EdgeTypeID, dir catalog.Direction, dstLabel catalog.LabelID) (*PathDAG, bool) {
	s := bfs{view: view, et: et, dir: dir, dstLabel: dstLabel, b: new(storage.Batch)}
	s.start(dst)
	defer visits.Put(s.seen)
	total, ok := s.seen.at(src)
	for ; !ok && len(s.front) > 0; total, ok = s.seen.at(src) {
		s.step()
	}
	if !ok {
		return nil, false
	}
	d := &PathDAG{Len: int(total), Nodes: []vector.VID{src}, Off: []int32{0}, dst: dst, index: visits.Get().(*visitSet)}
	d.index.reset()
	d.index.mark(src, 0)
	for lo, level := 0, total; lo < len(d.Nodes); level-- {
		hi := len(d.Nodes)
		view.NeighborsBatch(d.Nodes[lo:hi], et, dir, dstLabel, false, s.b)
		for i := range d.Nodes[lo:hi] {
			for _, pc := range s.b.Pieces[s.b.Runs[i].Start:s.b.Runs[i].End] {
				for _, v := range s.b.PieceVIDs(pc) {
					if l, ok := s.seen.at(v); !ok || l != level-1 {
						continue
					}
					n := d.index.slot(v, int32(len(d.Nodes)))
					if int(n) == len(d.Nodes) {
						d.Nodes = append(d.Nodes, v)
					}
					d.Succ = append(d.Succ, n)
				}
			}
			d.Off = append(d.Off, int32(len(d.Succ)))
		}
		lo = hi
	}
	return d, true
}

// Node returns v's node index, and whether v is a node.
func (d *PathDAG) Node(v vector.VID) (int32, bool) { return d.index.at(v) }

// Release returns the DAG's node index to its pool; Node may not follow it.
func (d *PathDAG) Release() { visits.Put(d.index) }

// PathWeights walks the DAG's paths depth first from the source, successors
// in order, and returns the weight of each of the first max: the sum of
// edgeW (indexed like Succ) over its edges, added in path order.
func (d *PathDAG) PathWeights(edgeW []float64, max int) []float64 {
	var out []float64
	var walk func(n int32, w float64)
	walk = func(n int32, w float64) {
		if len(out) >= max {
			return
		}
		if d.Nodes[n] == d.dst {
			out = append(out, w)
			return
		}
		for j := d.Off[n]; j < d.Off[n+1]; j++ {
			walk(d.Succ[j], w+edgeW[j])
		}
	}
	walk(0, 0)
	return out
}
