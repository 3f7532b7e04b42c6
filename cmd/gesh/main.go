// Command gesh is an interactive shell for GES: it loads a snapshot file
// (or generates the LDBC-like benchmark dataset) and evaluates Cypher
// queries from stdin, printing result tables.
//
//	gesh -ldbc 0.1            # explore the generated benchmark dataset
//	gesh -snap graph.ges      # explore a snapshot saved with DB.Save
//
// Shell commands:
//
//	:help                 command summary
//	:mode flat|factorized|fused
//	:explain <query>      show the physical plan without running it
//	:stats                dataset gauges
//	:quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ges/internal/cypher"
	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/storage"
	"ges/internal/txn"
	"ges/internal/vector"
)

func main() {
	var (
		sf   = flag.Float64("ldbc", 0, "generate and load the benchmark dataset at this simulated scale factor")
		snap = flag.String("snap", "", "load a snapshot file saved with DB.Save")
		seed = flag.Int64("seed", 1, "dataset seed")
	)
	flag.Parse()

	var (
		g       *storage.Graph
		view    storage.View
		statsFn func() string
	)
	switch {
	case *snap != "":
		f, err := os.Open(*snap)
		if err != nil {
			fatal(err)
		}
		g, _, err = storage.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		view = txn.NewManager(g).Snapshot() // the manager seals the loaded graph
		statsFn = func() string {
			return fmt.Sprintf("%d vertices, %d edges, %s", g.NumVertices(), g.NumEdges(),
				ldbc.FmtBytes(g.MemBytes()))
		}
	default:
		scale := *sf
		if scale == 0 {
			scale = 0.05
		}
		fmt.Fprintf(os.Stderr, "generating benchmark dataset (simSF=%g)...\n", scale)
		ds, err := ldbc.Generate(ldbc.Config{SF: scale, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		g, view = ds.Graph, ds.Graph
		statsFn = func() string { return ds.Stats().String() }
	}
	cache := cypher.NewCache(g)
	// One pool for the session, so each query's arena recycles the buffers
	// the one before it released.
	pool := storage.NewPool()

	mode := exec.ModeFused
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprintln(os.Stderr, `gesh ready — Cypher on one line, :help for commands`)
	for {
		fmt.Fprintf(os.Stderr, "ges(%s)> ", mode)
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
			continue
		case line == ":quit" || line == ":q":
			return
		case line == ":help":
			fmt.Println(":mode flat|factorized|fused — switch engine variant")
			fmt.Println(":explain <query>            — show the physical plan")
			fmt.Println(":stats                      — dataset gauges")
			fmt.Println(":quit                       — leave")
		case line == ":stats":
			fmt.Println(statsFn())
		case strings.HasPrefix(line, ":mode"):
			switch strings.TrimSpace(strings.TrimPrefix(line, ":mode")) {
			case "flat":
				mode = exec.ModeFlat
			case "factorized":
				mode = exec.ModeFactorized
			case "fused":
				mode = exec.ModeFused
			default:
				fmt.Println("usage: :mode flat|factorized|fused")
			}
		default:
			explain := strings.HasPrefix(line, ":explain")
			pr, err := cache.Prepare(strings.TrimPrefix(line, ":explain"))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if explain {
				fmt.Println(exec.Physical(mode, pr.Plan))
				continue
			}
			eng := &exec.Engine{Mode: mode, Pool: pool}
			start := time.Now()
			res, err := eng.Run(view, pr.Plan)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printTable(res)
			fmt.Fprintf(os.Stderr, "(%d rows in %v, peak intermediates %s)\n",
				res.Block.NumRows(), time.Since(start).Round(time.Microsecond),
				ldbc.FmtBytes(res.PeakMem))
		}
	}
}

// printTable renders a result block with column-width alignment.
func printTable(res *exec.Result) {
	fb := res.Block
	widths := make([]int, len(fb.Names))
	for i, n := range fb.Names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(fb.Rows))
	for r, row := range fb.Rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			s := renderValue(v)
			cells[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	for i, n := range fb.Names {
		fmt.Printf("%-*s  ", widths[i], n)
	}
	fmt.Println()
	for _, row := range cells {
		for c, s := range row {
			fmt.Printf("%-*s  ", widths[c], s)
		}
		fmt.Println()
	}
}

func renderValue(v vector.Value) string { return v.String() }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gesh:", err)
	os.Exit(1)
}
