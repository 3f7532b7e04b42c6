// Package op implements the GES physical operators (§4.3) over the
// factorized representation. Every operator takes and returns an f-Tree:
// operators grow or annotate it (Expand adds nodes, Projection appends
// columns, Filter updates selection vectors) and de-factor only when forced.
// A de-factor (defactor, reshape.go) enumerates the tree's tuple indices and
// gathers each column by row index into a one-node tree — the columnar form
// of the paper's flat-block — so an operator whose logic spans nodes
// (a cross-node Filter, ProjectExpr, ExpandInto or ExpandIntersect) runs its
// one kernel on that tree, and the blocking operators (the aggregates,
// OrderBy, Limit, Distinct, Defactor) emit one. Rows are boxed once, when
// the executor hands a query's result out. The paper's baseline GES variant
// is the executor de-factoring every operator's output (exec.ModeFlat).
package op

import (
	"fmt"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/storage"
	"ges/internal/vector"
)

// Ctx carries the per-query execution environment: the storage view the
// query reads (base graph or transaction snapshot), the query's arena over
// the shared memory pool, and instrumentation sinks.
type Ctx struct {
	View storage.View

	// Arena brackets this query's scratch memory (§5, memory pool):
	// query-lifetime structures (index vectors, f-Block columns, selection
	// vectors) come from Own* and are released wholesale when the engine
	// ends the query; transient scratch cycles through Get*/Put*.
	// A nil arena is valid and allocates fresh memory everywhere (operator
	// unit tests build a Ctx without one), so operators call through it
	// unconditionally.
	Arena *storage.Arena

	// PeakMem records the largest f-Tree observed between operators; the
	// executor samples it after every operator (Table 2).
	PeakMem int

	// MaxRows limits defensive materialization: a de-factor of more than
	// MaxRows tuples aborts the query before it gathers a column. Zero means
	// no limit.
	MaxRows int
}

// NewFTree returns the query's root f-Tree over a block of the given
// columns, drawn from the arena so repeated executions reuse node and
// selection-vector storage (§5, pre-allocated reusable f-Trees).
func (c *Ctx) NewFTree(cols ...*vector.Column) *core.FTree {
	return c.Arena.OwnFTree(c.NewFBlock(cols...))
}

// NewFBlock returns a query-lifetime f-Block over cols, drawn from the arena
// so the block struct and its column-pointer slice recycle across queries.
// Columns attach one at a time — the variadic slice never escapes, so
// call sites keep it on the stack.
func (c *Ctx) NewFBlock(cols ...*vector.Column) *core.FBlock {
	b := c.Arena.OwnFBlock()
	for _, col := range cols {
		b.AddColumn(col)
	}
	return b
}

// Observe folds a tree's size into the peak-memory statistic.
func (c *Ctx) Observe(ft *core.FTree) {
	if m := ft.MemBytes(); m > c.PeakMem {
		c.PeakMem = m
	}
}

// Operator is one step of a physical plan. Execute receives the f-Tree
// produced by the upstream operator (nil for source operators) and returns
// the tree for the downstream one, which may be in itself.
type Operator interface {
	Name() string
	Execute(ctx *Ctx, in *core.FTree) (*core.FTree, error)
}

// RunPlan executes a linear operator chain over in (nil for a chain that
// starts with a source operator) and returns its final tree. The executor
// package wraps this with per-operator timing; the plain version serves
// sub-plans (PatternCount's path) and tests.
func RunPlan(ctx *Ctx, in *core.FTree, plan []Operator) (*core.FTree, error) {
	ft := in
	var err error
	for _, o := range plan {
		ft, err = o.Execute(ctx, ft)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.Name(), err)
		}
		ctx.Observe(ft)
	}
	return ft, nil
}

// assertFTree verifies the factorized-representation invariants at an
// operator block boundary in debug builds (-tags gesassert). AssertEnabled
// is a constant, so release builds compile the call away.
func assertFTree(ft *core.FTree) {
	if core.AssertEnabled {
		core.CheckFTree(ft)
	}
}

// errNoColumn standardizes missing-attribute errors.
func errNoColumn(op, col string) error {
	return fmt.Errorf("op: %s: no column %q in input", op, col)
}

// propGetter resolves a property name across every label that defines it.
// Mixed-label columns (e.g. LDBC Message = Post ∪ Comment) gather one pass
// per defining label: labels is the unit the batch gather iterates.
type propGetter struct {
	name   string
	kind   vector.Kind
	labels []catalog.LabelProp
}

func newPropGetter(view storage.View, name string) (*propGetter, error) {
	labels, _ := view.Catalog().PropLabels(name)
	if len(labels) == 0 {
		return nil, fmt.Errorf("op: property %q not defined by any label", name)
	}
	g := &propGetter{name: name, kind: labels[0].Kind, labels: labels}
	for _, lp := range labels {
		if lp.Kind != g.kind {
			return nil, fmt.Errorf("op: property %q has conflicting kinds across labels", name)
		}
	}
	return g, nil
}

// vidColumn locates the f-Tree node and VID column for a variable name.
func vidColumn(ft *core.FTree, name string) (*core.Node, *vector.Column, error) {
	n, c := ft.FindColumn(name)
	if c == nil {
		return nil, nil, errNoColumn("expand", name)
	}
	if c.Kind != vector.KindVID {
		return nil, nil, fmt.Errorf("op: column %q is %s, want vid", name, c.Kind)
	}
	return n, c, nil
}
