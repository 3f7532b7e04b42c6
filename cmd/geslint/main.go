// Command geslint is the GES invariant analyzer: eight rules (R0, R2, R3,
// R5, R7, R8, R10, R11, see internal/lint; R4 and R6 merged into R3, R1 and
// R9 were deleted) enforced over the whole module with nothing but the standard
// library's go/ast, go/parser and go/types and the go command — no x/tools
// dependency, so it builds wherever the engine does. Module packages are
// type-checked from source; the standard library is read from the export
// data one `go list -export` call locates.
//
// R0, R2, R3 and R5 are structural (R0: every //geslint: directive is
// a live one; R3: owner-only mutation); R7–R11 are interprocedural, from
// module-wide per-function summaries (allocations, lock acquisitions,
// spawns, parameter retention, discarded errors, pool discharges) computed
// to a fixed point over the call graph by internal/lint.
//
// Usage:
//
//	geslint [-json] [packages]
//
// Package patterns are accepted for familiarity but the analyzer always
// loads the enclosing module in full: the rules are module-scoped (lock
// orders, call graphs, and ownership boundaries cross package lines). Exit
// status is 0 when the module is clean, 1 when findings are reported, 2 on
// load or type-check failure.
//
// Deliberate exceptions and markers are annotated in source; directives
// marked <why> require a one-line justification or they are inert and
// themselves a finding, as is any directive not in this table (R0):
//
//	//geslint:lockorder A < B         declares lock A is acquired before B (R2)
//	//geslint:go-ok                   the go statement on/below this line (R5)
//	//geslint:kernel                  func must be transitively pure (R7)
//	//geslint:alloc-ok <why>          waives one impure site in a kernel path (R7)
//	//geslint:snapshot-owner <why>    type may hold snapshot-derived values (R8)
//	//geslint:retain-ok <why>         waives one snapshot escape site (R8)
//	//geslint:err-ok <why>            waives one discarded-error site (R10)
//	//geslint:leak-ok <why>           waives one undischarged pool acquire (R11)
package main

import (
	"flag"
	"fmt"
	"os"

	"ges/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	dir := flag.String("C", ".", "analyze the module containing this directory")
	flag.Parse()

	mod, err := lint.LoadModule(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := lint.Run(mod)
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		lint.WriteText(os.Stdout, diags)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "geslint: %d finding(s) in %s\n", len(diags), mod.Path)
		os.Exit(1)
	}
}
