package service_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/service"
)

// allocCeilings are absolute allocs/op budgets for one request through
// Mux().ServeHTTP, request and recorder included, at simSF 0.1 in a build
// whose sync.Pool keeps what is put (no race detector): measured (140 / 80 /
// 74 / 71 / 65 / 87 / 65 with Go 1.24) plus about a third, like
// internal/bench's recycleAllocCeiling. The parent of this gate measured
// 4 056 / 1 020 / 269 for the fat, count and IS3 requests, and the /ldbc
// requests cost 91 / 117 / 100 / 116 / 90 before their bodies were scanned
// by hand and their ORDER BY sorted tuple ids: a request that boxes its rows
// again, de-factors before its aggregate, allocates per row or decodes its
// body into interface values goes through them. The first two are the
// cypher_adhoc workload's fat projection (a LIMIT without ORDER BY) and a
// COUNT(*) over two hops; IS1–IS7 are the is_point workload's shapes (a
// property read, an ORDER BY LIMIT, a full ORDER BY, one over two f-Tree
// nodes); the last commits a KNOWS pair, both directions, into the graph's
// deltas.
var allocCeilings = []struct {
	name, path, body string
	ceiling          int
}{
	{"query-fat", "/query", `{"query":"MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person) WHERE id(p) = 3 RETURN id(f) AS f, id(g) AS g, g.firstName AS firstName, g.lastName AS lastName, g.locationIP AS ip, g.browserUsed AS browser LIMIT 600"}`, 190},
	{"query-count", "/query", `{"query":"MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person) WHERE id(p) = 3 RETURN COUNT(*) AS n"}`, 115},
	{"ldbc-is1", "/ldbc", `{"name":"IS1","params":{"personId":3}}`, 96},
	{"ldbc-is2", "/ldbc", `{"name":"IS2","params":{"personId":3}}`, 92},
	{"ldbc-is3", "/ldbc", `{"name":"IS3","params":{"personId":3}}`, 85},
	{"ldbc-is7", "/ldbc", `{"name":"IS7","params":{"messageId":3,"isPost":1}}`, 113},
	{"ldbc-iu8", "/ldbc", `{"name":"IU8","params":{"person1Id":3,"person2Id":5,"date":20000}}`, 85},
}

// poolKeepsPuts reports whether this build's sync.Pool returns a value just
// put; the race detector makes it drop puts at random, and the ceilings
// assume recycling.
func poolKeepsPuts() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return false
		}
	}
	return true
}

// TestServiceAllocBudget gates the response path's allocations per request.
func TestServiceAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget skipped in -short")
	}
	if !poolKeepsPuts() {
		t.Skip("sync.Pool drops puts in this build (race detector); the ceilings assume recycling")
	}
	ds, err := ldbc.Generate(ldbc.Config{SF: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mux := service.New(ds, exec.ModeFused).Mux()
	serve := func(path, body string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", path, body, rec.Code, rec.Body)
		}
	}
	for _, c := range allocCeilings {
		serve(c.path, c.body) // plan cache, pools
		got := testing.AllocsPerRun(50, func() { serve(c.path, c.body) })
		t.Logf("%s: %.0f allocs/op (ceiling %d)", c.name, got, c.ceiling)
		if got > float64(c.ceiling) {
			t.Errorf("%s allocates %.0f times per request, ceiling %d", c.name, got, c.ceiling)
		}
	}
}
