// Command gesd is the Graph Engine *Service*: an HTTP server exposing the
// engine over a small JSON API, serving the LDBC-SNB-like dataset.
//
// Endpoints:
//
//	POST /query   {"query": "MATCH ... RETURN ..."}            → result table
//	POST /ldbc    {"name": "IS3", "params": {"personId": 42}}  → workload query
//	GET  /stats                                                → dataset gauges
//	GET  /healthz                                              → liveness
//
// /ldbc params must be exactly the query's parameters; omitted, they are
// drawn from the dataset's parameter pools.
//
// Example:
//
//	gesd -addr :8080 -sf 0.1 -mode fused
//	curl -s localhost:8080/query -d '{"query":
//	  "MATCH (p:Person)-[:KNOWS*1..2]->(f) WHERE id(p) = 1 RETURN COUNT(*) AS friends"}'
package main

import (
	"flag"
	"log"
	"net/http"
	"strings"

	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/service"
)

func main() {
	var (
		addr = flag.String("addr", ":8080", "listen address")
		sf   = flag.Float64("sf", 0.1, "simulated scale factor of the served dataset")
		seed = flag.Int64("seed", 1, "dataset seed")
		mode = flag.String("mode", "fused", "engine variant: flat | factorized | fused")
	)
	flag.Parse()

	var m exec.Mode
	switch strings.ToLower(*mode) {
	case "flat":
		m = exec.ModeFlat
	case "factorized":
		m = exec.ModeFactorized
	case "fused":
		m = exec.ModeFused
	default:
		log.Fatalf("gesd: unknown mode %q", *mode)
	}

	log.Printf("generating dataset (simSF=%g)...", *sf)
	ds, err := ldbc.Generate(ldbc.Config{SF: *sf, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("dataset ready: %s", ds.Stats())

	srv := service.New(ds, m)
	log.Printf("gesd (%s engine) listening on %s", m, *addr)
	log.Fatal(http.ListenAndServe(*addr, srv.Mux()))
}
