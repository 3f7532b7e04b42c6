// Package op holds the positive fixture cases: one deliberate violation per
// rule (R3, R5), marked with `// want Rn` comments the self-test
// matches against geslint's findings.
package op

import (
	"ges/internal/core"
	"ges/internal/vector"
)

// BadSelWrite mutates a selection vector outside filter.go — directly and
// through a local alias.
func BadSelWrite(n *core.Node) {
	n.Sel.Clear(0) // want R3
	sel := n.Sel
	sel.Set(1) // want R3
}

// BadAppend grows f-Block columns behind the block's back, through each
// accessor form.
func BadAppend(b *core.FBlock) {
	b.Column(0).AppendInt64(7) // want R3
	c := b.ColumnByName("x")
	c.Append(vector.Value{})      // want R3
	c.AppendVIDs([]vector.VID{1}) // want R3
	c.Gather(b.Column(1), nil)    // want R3
}

// BadSpawn launches a goroutine with a raw go statement.
func BadSpawn() {
	done := make(chan struct{})
	go func() { close(done) }() // want R5
	<-done
}
