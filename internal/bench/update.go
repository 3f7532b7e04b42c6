// The "update" experiment measures the delta-overlay CSR under the paper's
// sustained-IU regime (§2.3): reader workers stream batched KNOWS expansions
// while a writer continuously inserts and deletes edges. Readers stay
// lock-free on the sealed images and mutations land in per-image deltas
// drained by background reseals. Emits a JSON artifact when Config.JSONPath
// is set.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ges/internal/catalog"
	"ges/internal/ldbc"
	"ges/internal/storage"
	"ges/internal/vector"
)

func init() {
	register(Experiment{"update", "read throughput under sustained IU writes through the delta overlay", updateExp})
}

// updateWorkerSweep is the reader worker ladder.
var updateWorkerSweep = []int{1, 2, 4, 8}

// updateChunk is the batch granularity of one reader expansion call.
const updateChunk = 256

// Writer pacing: the IU stream is sustained but bounded (an open-loop writer
// on a small host would measure scheduler starvation, not the read path) —
// updateWriteBatch ops every updateWritePause (the pause is best-effort on loaded hosts; the applied rate is reported).
const (
	updateWriteBatch = 200
	updateWritePause = time.Millisecond
)

// writerPair is one (src,dst) the writer toggles. Writer pairs are disjoint
// from the generated edge set and always carry the same deterministic prop.
type writerPair struct {
	src, dst vector.VID
	present  bool
}

// updateProp derives a pair's creationDate deterministically from its
// endpoints.
func updateProp(src, dst vector.VID) vector.Value {
	return vector.Date(int64(ldbc.DayStart) + (int64(src)*31+int64(dst)*17)%int64(ldbc.DayEnd-ldbc.DayStart))
}

// buildWriterPairs draws candidate person pairs absent from the generated
// KNOWS edge set.
func buildWriterPairs(ds *ldbc.Dataset, n int, seed int64) []*writerPair {
	g, h := ds.Graph, ds.H
	existing := make(map[[2]vector.VID]bool)
	var b storage.Batch
	g.NeighborsBatch(ds.Persons, h.Knows, catalog.Out, h.Person, false, &b)
	for i, src := range ds.Persons {
		for _, dst := range b.Run(i) {
			existing[[2]vector.VID{src, dst}] = true
		}
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]*writerPair, 0, n)
	taken := make(map[[2]vector.VID]bool)
	for len(pairs) < n {
		src := ds.Persons[rng.Intn(len(ds.Persons))]
		dst := ds.Persons[rng.Intn(len(ds.Persons))]
		k := [2]vector.VID{src, dst}
		if src == dst || existing[k] || taken[k] {
			continue
		}
		taken[k] = true
		pairs = append(pairs, &writerPair{src: src, dst: dst})
	}
	return pairs
}

// updateRun is one measured point: `workers` readers batch-expanding KNOWS
// while one writer toggles pairs for `dur`.
func updateRun(ds *ldbc.Dataset, workers int, dur time.Duration, seed int64) (readSrcs, writes int64) {
	g, h := ds.Graph, ds.H
	pairs := buildWriterPairs(ds, 4*len(ds.Persons), seed)

	var stop atomic.Bool
	var wg sync.WaitGroup
	var totalReads, totalWrites atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Readers simulate independent clients, outside the engine's
		// scheduler budget by design (same rationale as the driver's mix
		// workers).
		//geslint:go-ok
		go func(w int) {
			defer wg.Done()
			var b storage.Batch
			n := int64(0)
			at := (w * 13) % len(ds.Persons)
			for !stop.Load() {
				hi := at + updateChunk
				if hi > len(ds.Persons) {
					hi = len(ds.Persons)
					at = 0
				}
				chunk := ds.Persons[at:hi]
				at = hi % len(ds.Persons)
				g.NeighborsBatch(chunk, h.Knows, catalog.Out, h.Person, true, &b)
				n += int64(len(chunk))
			}
			totalReads.Add(n)
		}(w)
	}
	wg.Add(1)
	// The writer is the sustained IU stream, likewise an external client.
	//geslint:go-ok
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed + 104729))
		n := int64(0)
		for !stop.Load() {
			for i := 0; i < updateWriteBatch; i++ {
				p := pairs[rng.Intn(len(pairs))]
				if p.present {
					if g.DeleteEdge(h.Knows, p.src, p.dst) {
						n++
					}
				} else if g.AddEdge(h.Knows, p.src, p.dst, updateProp(p.src, p.dst)) == nil {
					n++
				}
				p.present = !p.present
			}
			time.Sleep(updateWritePause)
		}
		totalWrites.Add(n)
	}()

	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return totalReads.Load(), totalWrites.Load()
}

// updatePoint is one worker-count row of the JSON artifact.
type updatePoint struct {
	Workers      int     `json:"workers"`
	ReadsPerSec  float64 `json:"readsPerSec"` // sources expanded per second, all readers
	WritesPerSec float64 `json:"writesPerSec"`
}

// updateReport is the schema of the JSON artifact.
type updateReport struct {
	SimSF      float64       `json:"simSF"`
	DurationMs float64       `json:"durationMs"` // per measured point
	Points     []updatePoint `json:"points"`
	// Reseal counters from the last (widest) run.
	Reseals          int64   `json:"reseals"`
	ResealMs         float64 `json:"resealMs"`
	MaxDeltaFraction float64 `json:"maxDeltaFraction"`
	StatsEpoch       uint64  `json:"statsEpoch"`
}

func updateExp(w io.Writer, cfg Config) error {
	sf := cfg.SFs[len(cfg.SFs)-1]
	dur := 2 * cfg.TraceBucket
	if dur <= 0 {
		dur = 400 * time.Millisecond
	}
	report := updateReport{SimSF: sf, DurationMs: ms(dur)}
	fmt.Fprintf(w, "mixed read/write KNOWS workload, simSF=%.4g, %v per point, 1 writer, chunk=%d\n",
		sf, dur, updateChunk)
	fmt.Fprintf(w, "%-8s %16s %16s\n", "readers", "reads/s", "writes/s")

	for _, workers := range updateWorkerSweep {
		// Fresh private dataset per point: the workload mutates it, so the
		// shared cache must never see it.
		ds, err := ldbc.Generate(ldbc.Config{SF: sf, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		r, wr := updateRun(ds, workers, dur, cfg.Seed+int64(workers))
		pt := updatePoint{Workers: workers, ReadsPerSec: float64(r) / dur.Seconds(), WritesPerSec: float64(wr) / dur.Seconds()}
		ov := ds.Graph.Overlay()
		report.Reseals = ov.Reseals
		report.ResealMs = ms(ov.ResealTime)
		report.MaxDeltaFraction = ov.MaxDeltaFraction
		report.StatsEpoch = ov.StatsEpoch
		report.Points = append(report.Points, pt)
		fmt.Fprintf(w, "%-8d %16.0f %16.0f\n", workers, pt.ReadsPerSec, pt.WritesPerSec)
	}
	fmt.Fprintf(w, "reseals: %d (%.1fms total), peak delta fraction %.4f, stats epoch %d\n",
		report.Reseals, report.ResealMs, report.MaxDeltaFraction, report.StatsEpoch)

	if cfg.JSONPath != "" {
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.JSONPath, append(raw, '\n'), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", cfg.JSONPath, err)
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.JSONPath)
	}
	return nil
}
