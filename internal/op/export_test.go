package op

import "ges/internal/core"

// FoldsChain reports whether o folds ft weighted, over the rows of one
// chain's deepest node, rather than over its tuples.
func FoldsChain(o *Aggregate, ft *core.FTree) bool {
	t, err := newAggTable(o)
	if err != nil {
		return false
	}
	refs, err := ft.Resolve(t.cols)
	if err != nil {
		return false
	}
	for _, r := range refs {
		t.kinds = append(t.kinds, ft.Nodes()[r.Node].Block.Column(r.Col).Kind)
	}
	return t.chainNode(ft, refs) != nil
}
