// Negative fixture cases: the same shapes as bad.go, made legitimate by
// directives or by operating on non-protected values. None of these lines
// may be flagged.
package op

import "ges/internal/vector"

// OKSpawn is permitted by the line-level go-ok directive (R5 negative).
func OKSpawn() {
	done := make(chan struct{})
	//geslint:go-ok
	go func() { close(done) }()
	<-done
}

// OKScratchBitset writes a bitset that is not a selection vector (R3
// negative: taint starts at core.Node.Sel, not at every Bitset).
func OKScratchBitset(n int) *vector.Bitset {
	b := vector.NewBitset(n)
	b.Set(0)
	return b
}

// OKFreshColumn appends to a column no f-Block owns yet (R3 negative).
func OKFreshColumn() *vector.Column {
	c := vector.NewColumn("x", 0)
	c.AppendInt64(1)
	return c
}
