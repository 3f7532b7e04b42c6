// Package ldbc lies outside R5's scope (goScope): the raw go statement below
// must not be flagged.
package ldbc

// Run spawns fn on its own goroutine.
func Run(fn func()) {
	go fn()
}
