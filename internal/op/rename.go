package op

import (
	"slices"

	"ges/internal/core"
)

// Rename relabels columns (From[i] becomes To[i]). The frontend uses it to
// apply RETURN aliases after execution runs on canonical column names. It is
// metadata-only: no data moves.
type Rename struct {
	From []string
	To   []string
}

// Name implements Operator.
func (o *Rename) Name() string { return "Rename" }

// Execute implements Operator.
func (o *Rename) Execute(ctx *Ctx, ft *core.FTree) (*core.FTree, error) {
	for _, node := range ft.Nodes() {
		for _, c := range node.Block.Columns() {
			if i := slices.Index(o.From, c.Name); i >= 0 {
				c.Name = o.To[i]
			}
		}
	}
	return ft, nil
}
