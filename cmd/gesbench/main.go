// Command gesbench regenerates the paper's evaluation tables and figures
// (§6) at simulated laptop scale.
//
// Usage:
//
//	gesbench -exp table2            # one experiment
//	gesbench -exp all               # the whole evaluation section
//	gesbench -exp fig11 -quick      # CI-sized configuration
//	gesbench -list                  # enumerate experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ges/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		quick   = flag.Bool("quick", false, "CI-sized configuration")
		list    = flag.Bool("list", false, "list experiment ids")
		sfs     = flag.String("sf", "", "comma-separated simulated scale factors (overrides preset)")
		runs    = flag.Int("runs", 0, "parameter draws per query measurement (overrides preset)")
		workers = flag.Int("workers", 0, "workers for throughput runs (overrides preset)")
		ops     = flag.Int("ops", 0, "operations per throughput run (overrides preset)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.Full()
	if *quick {
		cfg = bench.Quick()
	}
	if *sfs != "" {
		cfg.SFs = nil
		for _, part := range strings.Split(*sfs, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fatal(err)
			}
			cfg.SFs = append(cfg.SFs, f)
		}
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *ops > 0 {
		cfg.MixOps = *ops
	}

	exps := bench.All()
	if *exp != "all" {
		e, err := bench.ByID(*exp)
		if err != nil {
			fatal(err)
		}
		exps = []bench.Experiment{e}
	}
	for _, e := range exps {
		fmt.Printf("==== %s — %s ====\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(os.Stdout, cfg); err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Printf("(%s finished in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gesbench:", err)
	os.Exit(1)
}
