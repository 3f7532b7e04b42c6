package op

import "ges/internal/core"

// CloseCycle narrows the child selection in place while closing a cyclic
// pattern edge (R3 negative: internal/op/expandinto.go is sanctioned by
// name, no file directive needed).
func CloseCycle(n *core.Node) {
	n.Sel.Clear(7)
	alias := n.Sel
	alias.Clear(4)
}
