package op

import "ges/internal/core"

// ApplyFilter writes selection vectors from the one operator file allowed to
// (R3 negative: internal/op/filter.go is the sanctioned writer).
func ApplyFilter(n *core.Node) {
	n.Sel.Clear(3)
	n.Sel.Clear(2)
}
