package service_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ges/internal/cypher"
	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/service"
)

func getStats(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func planCacheStats(t *testing.T, ts *httptest.Server) (hits, misses, size, capacity int) {
	t.Helper()
	st := getStats(t, ts)
	pc, ok := st["planCache"].(map[string]any)
	if !ok {
		t.Fatalf("/stats has no planCache section: %v", st)
	}
	return int(pc["hits"].(float64)), int(pc["misses"].(float64)),
		int(pc["size"].(float64)), int(pc["capacity"].(float64))
}

const countFriendsQuery = `MATCH (p:Person)-[:KNOWS]->(f) WHERE id(p) = 1
                           RETURN COUNT(*) AS friends`

// TestPlanCacheHitCounter asserts that repeated POST /query bodies hit the
// compiled-plan cache and that /stats exposes the counters.
func TestPlanCacheHitCounter(t *testing.T) {
	ts := testServer(t)
	var first map[string]any
	for i := 0; i < 4; i++ {
		resp, out := post(t, ts, "/query", service.QueryRequest{Query: countFriendsQuery})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %v", i, resp.StatusCode, out)
		}
		if first == nil {
			first = out
		} else if !reflect.DeepEqual(out["rows"], first["rows"]) {
			t.Fatalf("cached plan changed the result: %v vs %v", out["rows"], first["rows"])
		}
	}
	hits, misses, size, capacity := planCacheStats(t, ts)
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (one compile)", misses)
	}
	if hits != 3 {
		t.Fatalf("hits = %d, want 3", hits)
	}
	if size != 1 {
		t.Fatalf("size = %d, want 1", size)
	}
	if capacity != cypher.PlanCacheSize {
		t.Fatalf("capacity = %d, want %d", capacity, cypher.PlanCacheSize)
	}
}

// TestPlanCacheParameterized asserts that queries differing only in literal
// values normalize onto one cached skeleton (one miss, then hits) while each
// execution re-binds its own literals and returns its own answer.
func TestPlanCacheParameterized(t *testing.T) {
	ts := testServer(t)
	for i, id := range []int{1, 2, 3, 7} {
		q := fmt.Sprintf(
			`MATCH (p:Person)-[:KNOWS]->(f) WHERE id(p) = %d RETURN id(p) AS who, COUNT(*) AS friends`, id)
		resp, out := post(t, ts, "/query", service.QueryRequest{Query: q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %v", id, resp.StatusCode, out)
		}
		rows := out["rows"].([]any)
		if len(rows) != 1 {
			t.Fatalf("query %d: %d rows, want 1", id, len(rows))
		}
		if who := int(rows[0].([]any)[0].(float64)); who != id {
			t.Fatalf("query %d returned who = %d: cached plan did not re-bind the literal", id, who)
		}
		hits, misses, size, _ := planCacheStats(t, ts)
		if misses != 1 || hits != i || size != 1 {
			t.Fatalf("after query %d: hits/misses/size = %d/%d/%d, want %d/1/1 (literal-differing queries must share one entry)",
				id, hits, misses, size, i)
		}
	}
}

// TestPlanCacheStatsEpochInvalidation re-seals the graph and asserts the
// cached skeleton stops being hit: the statistics epoch is part of the key,
// so plans shaped for stale cardinalities age out instead of being reused.
func TestPlanCacheStatsEpochInvalidation(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 0.03, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := service.NewWith(ds, exec.ModeFused, service.Options{})
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp, out := post(t, ts, "/query", service.QueryRequest{Query: countFriendsQuery})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %v", resp.StatusCode, out)
		}
	}
	hits, misses, _, _ := planCacheStats(t, ts)
	if hits != 1 || misses != 1 {
		t.Fatalf("before re-seal: hits/misses = %d/%d, want 1/1", hits, misses)
	}
	epoch := ds.Graph.StatsEpoch()
	ds.Graph.SealCSR() // rebuilds statistics under a bumped epoch
	if got := ds.Graph.StatsEpoch(); got <= epoch {
		t.Fatalf("StatsEpoch after re-seal = %d, want > %d", got, epoch)
	}
	resp, out := post(t, ts, "/query", service.QueryRequest{Query: countFriendsQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if _, misses, _, _ = planCacheStats(t, ts); misses != 2 {
		t.Fatalf("misses after re-seal = %d, want 2 (stale-epoch plan must not be reused)", misses)
	}
}

// TestConcurrentQueries fires parallel /query and /ldbc requests at one
// server. Each request gets its own engine value, so this passes under -race;
// with a shared engine the per-run state would collide.
func TestConcurrentQueries(t *testing.T) {
	ts := testServer(t)
	queries := []string{
		countFriendsQuery,
		`MATCH (p:Person)-[:KNOWS]->(f) WHERE id(p) = 2 RETURN COUNT(*) AS friends`,
		`MATCH (p:Person)-[:KNOWS]->(f)-[:KNOWS]->(g) WHERE id(p) = 1 RETURN COUNT(*) AS fof`,
	}
	// Sequential reference results.
	want := make([]any, len(queries))
	for i, q := range queries {
		resp, out := post(t, ts, "/query", service.QueryRequest{Query: q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference %d: status %d: %v", i, resp.StatusCode, out)
		}
		want[i] = out["rows"]
	}
	// Raw posts below: the shared post helper touches testing.T, which must
	// stay on the test goroutine.
	rawPost := func(q string) (int, map[string]any, error) {
		raw, _ := json.Marshal(service.QueryRequest{Query: q})
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(string(raw)))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return resp.StatusCode, nil, err
		}
		return resp.StatusCode, out, nil
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				qi := (w + i) % len(queries)
				code, out, err := rawPost(queries[qi])
				if err != nil || code != http.StatusOK {
					errs <- fmt.Sprintf("worker %d: status %d err %v: %v", w, code, err, out)
					return
				}
				if !reflect.DeepEqual(out["rows"], want[qi]) {
					errs <- fmt.Sprintf("worker %d query %d: rows %v, want %v", w, qi, out["rows"], want[qi])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
