// Command gesgen generates the LDBC-SNB-like benchmark dataset at a given
// simulated scale factor and prints its statistics (the Table 1 row), plus a
// per-label census with -v.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ges/internal/catalog"
	"ges/internal/ldbc"
)

func main() {
	var (
		sf      = flag.Float64("sf", 0.1, "simulated scale factor (persons ≈ 1100·sf)")
		seed    = flag.Int64("seed", 1, "generator seed")
		verbose = flag.Bool("v", false, "print the per-label census")
	)
	flag.Parse()

	start := time.Now()
	ds, err := ldbc.Generate(ldbc.Config{SF: *sf, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gesgen:", err)
		os.Exit(1)
	}
	fmt.Println(ds.Stats())
	fmt.Printf("generated in %v\n", time.Since(start).Round(time.Millisecond))

	if *verbose {
		cat := ds.H.Cat
		fmt.Println("\nlabel census:")
		for l := 0; l < cat.NumLabels(); l++ {
			id := catalog.LabelID(l)
			fmt.Printf("  %-12s %d\n", cat.LabelName(id), ds.Graph.CountLabel(id))
		}
	}
}
