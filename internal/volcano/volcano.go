// Package volcano is the competitor-architecture stand-in used by the
// cross-system experiments (Figure 15, Table 4): a classical tuple-at-a-time
// iterator engine in the style of Neo4j's runtime and textbook Volcano
// executors. It interprets the very same physical plans as the GES engine,
// so result sets are directly comparable, but every operator pulls one boxed
// row at a time through an iterator chain — no batching, no factorization,
// no columnar access. See DESIGN.md §3 for why this substitution isolates
// the architectural variable the paper's cross-system tables measure.
package volcano

import (
	"fmt"
	"time"

	"ges/internal/core"
	"ges/internal/exec"
	"ges/internal/expr"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/storage"
	"ges/internal/vector"
)

// Engine is a tuple-at-a-time executor. It satisfies the same Run contract
// as exec.Engine.
type Engine struct {
	// MaxRows bounds materializing operators (0 = unlimited).
	MaxRows int
}

// New returns a volcano engine.
func New() *Engine { return &Engine{} }

// Run interprets the plan and returns all result rows as a flat block.
func (e *Engine) Run(view storage.View, p plan.Plan) (*exec.Result, error) {
	start := time.Now()
	it, err := e.build(view, p)
	if err != nil {
		return nil, err
	}
	out := core.NewFlatBlock(it.schema(), it.kinds())
	for {
		row, ok, err := it.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out.Append(row)
		if e.MaxRows > 0 && out.NumRows() > e.MaxRows {
			return nil, fmt.Errorf("volcano: result exceeds row limit %d", e.MaxRows)
		}
	}
	return &exec.Result{Block: out, Duration: time.Since(start), PeakMem: out.MemBytes()}, nil
}

// iter is the classic Volcano interface, compressed: next returns the next
// row, a validity flag, and an error.
type iter interface {
	schema() []string
	kinds() []vector.Kind
	next() ([]vector.Value, bool, error)
}

// build chains iterators for the plan.
func (e *Engine) build(view storage.View, p plan.Plan) (iter, error) {
	var cur iter
	for _, o := range p {
		var err error
		cur, err = e.buildOp(view, cur, o)
		if err != nil {
			return nil, fmt.Errorf("volcano: %s: %w", o.Name(), err)
		}
	}
	if cur == nil {
		return nil, fmt.Errorf("volcano: empty plan")
	}
	return cur, nil
}

func (e *Engine) buildOp(view storage.View, in iter, o op.Operator) (iter, error) {
	switch n := o.(type) {
	case *op.NodeByIdSeek:
		var rows [][]vector.Value
		if v, ok := view.VertexByExt(n.Label, n.ExtID); ok {
			rows = append(rows, []vector.Value{vector.VIDValue(v)})
		}
		return &sliceIter{names: []string{n.Var}, ks: []vector.Kind{vector.KindVID}, rows: rows}, nil
	case *op.MultiSeek:
		var rows [][]vector.Value
		for _, ext := range n.ExtIDs {
			if v, ok := view.VertexByExt(n.Label, ext); ok {
				rows = append(rows, []vector.Value{vector.VIDValue(v)})
			}
		}
		return &sliceIter{names: []string{n.Var}, ks: []vector.Kind{vector.KindVID}, rows: rows}, nil
	case *op.NodeScan:
		vs := view.ScanLabel(n.Label)
		rows := make([][]vector.Value, len(vs))
		for i, v := range vs {
			rows[i] = []vector.Value{vector.VIDValue(v)}
		}
		return &sliceIter{names: []string{n.Var}, ks: []vector.Kind{vector.KindVID}, rows: rows}, nil
	case *op.SeekExpand:
		var rows [][]vector.Value
		if src, ok := view.VertexByExt(n.Label, n.ExtID); ok {
			for _, seg := range view.Neighbors(nil, src, n.Et, n.Dir, n.DstLabel, false) {
				for _, v := range seg.VIDs {
					rows = append(rows, []vector.Value{vector.VIDValue(v)})
				}
			}
		}
		return &sliceIter{names: []string{n.To}, ks: []vector.Kind{vector.KindVID}, rows: rows}, nil
	case *op.Expand:
		return newExpandIter(view, in, n)
	case *op.VarLengthExpand:
		return newVarExpandIter(view, in, n)
	case *op.ExpandInto:
		return newExpandIntoIter(view, in, n)
	case *op.ExpandIntersect:
		return newExpandIntersectIter(view, in, n)
	case *op.ProjectProps:
		return newProjectIter(view, in, n)
	case *op.ProjectExpr:
		return newProjectExprIter(in, n)
	case *op.Filter:
		return newFilterIter(in, n.Pred)
	case *op.OrderBy:
		return newSortIter(e, in, n)
	case *op.Limit:
		if n.Cols != nil {
			var err error
			if in, err = newNarrowIter(in, n.Cols); err != nil {
				return nil, err
			}
		}
		return &limitIter{in: in, skip: n.Skip, n: n.N}, nil
	case *op.Distinct:
		return newDistinctIter(in, n.Cols)
	case *op.Aggregate:
		return newAggIter(e, in, n.GroupBy, n.Aggs, nil, 0)
	case *op.AggregateProjectTop:
		return newAggIter(e, in, n.GroupBy, n.Aggs, n.Keys, n.Limit)
	case *op.HashJoin:
		return newJoinIter(e, view, in, n)
	case *op.Defactor:
		if n.Cols == nil {
			return in, nil
		}
		return newNarrowIter(in, n.Cols)
	case *op.Rename:
		names := append([]string(nil), in.schema()...)
		for i, name := range names {
			for j, from := range n.From {
				if from == name {
					names[i] = n.To[j]
				}
			}
		}
		return &renameIter{in: in, names: names}, nil
	default:
		return nil, fmt.Errorf("unsupported operator %T", o)
	}
}

// renameIter relabels the schema without touching rows.
type renameIter struct {
	in    iter
	names []string
}

func (it *renameIter) schema() []string                    { return it.names }
func (it *renameIter) kinds() []vector.Kind                { return it.in.kinds() }
func (it *renameIter) next() ([]vector.Value, bool, error) { return it.in.next() }

// colIndex resolves a column name in an iterator schema.
func colIndex(it iter, name string) (int, error) {
	for i, n := range it.schema() {
		if n == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("volcano: no column %q in %v", name, it.schema())
}

// rowBinding adapts the expression compiler to per-row evaluation.
type rowBinding struct {
	names []string
	cur   *[]vector.Value
}

func (b rowBinding) Bind(name string) (expr.Getter, error) {
	for i, n := range b.names {
		if n == name {
			idx := i
			cur := b.cur
			return func(int) vector.Value { return (*cur)[idx] }, nil
		}
	}
	return nil, fmt.Errorf("volcano: no column %q", name)
}

// sliceIter emits a pre-materialized row list.
type sliceIter struct {
	names []string
	ks    []vector.Kind
	rows  [][]vector.Value
	pos   int
}

func (s *sliceIter) schema() []string     { return s.names }
func (s *sliceIter) kinds() []vector.Kind { return s.ks }
func (s *sliceIter) next() ([]vector.Value, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	s.pos++
	return s.rows[s.pos-1], true, nil
}
