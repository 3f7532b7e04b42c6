package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/service"
	"ges/internal/storage"
	"ges/internal/txn"
	"ges/internal/vector"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ds, err := ldbc.Generate(ldbc.Config{SF: 0.03, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(ds, exec.ModeFused)
	ts := httptest.NewServer(srv.Mux())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, out := post(t, ts, "/query", service.QueryRequest{
		Query: `MATCH (p:Person)-[:KNOWS]->(f) WHERE id(p) = 1
		        RETURN COUNT(*) AS friends`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %v", resp.StatusCode, out)
	}
	cols := out["columns"].([]any)
	if len(cols) != 1 || cols[0] != "friends" {
		t.Fatalf("columns = %v", cols)
	}
	rows := out["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	stats := out["stats"].(map[string]any)
	if _, ok := stats["peakIntermediateBytes"]; !ok {
		t.Fatalf("stats = %v", stats)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	ts := testServer(t)
	// Parse error.
	resp, out := post(t, ts, "/query", service.QueryRequest{Query: "MATCH bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error status = %d: %v", resp.StatusCode, out)
	}
	if !strings.Contains(out["error"].(string), "cypher") {
		t.Fatalf("error = %v", out["error"])
	}
	// Malformed JSON body.
	r2, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json status = %d", r2.StatusCode)
	}
}

// TestQueryUnknownPropertyIs422: a predicate on an undefined property is an
// execution error on the fused server whether it filters a scan or is
// folded into an Expand — not an empty result.
func TestQueryUnknownPropertyIs422(t *testing.T) {
	ts := testServer(t)
	for _, q := range []string{
		`MATCH (p:Person) WHERE p.nosuch = 1 RETURN id(p)`,
		`MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE id(p) = 1 AND f.nosuch = 1 RETURN id(f)`,
	} {
		resp, out := post(t, ts, "/query", service.QueryRequest{Query: q})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status = %d, want 422: %v", q, resp.StatusCode, out)
			continue
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, `"nosuch"`) {
			t.Errorf("%s: error = %v", q, out["error"])
		}
	}
}

func TestLDBCEndpointWithExplicitParams(t *testing.T) {
	ts := testServer(t)
	resp, out := post(t, ts, "/ldbc", service.LDBCRequest{
		Name:   "is1",
		Params: map[string]any{"personId": 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %v", resp.StatusCode, out)
	}
	rows := out["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("IS1 rows = %v", rows)
	}
}

func TestLDBCEndpointAutoParams(t *testing.T) {
	ts := testServer(t)
	resp, out := post(t, ts, "/ldbc", service.LDBCRequest{Name: "IC9"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %v", resp.StatusCode, out)
	}
	stats := out["stats"].(map[string]any)
	if _, ok := stats["params"]; !ok {
		t.Fatal("auto-drawn params not echoed")
	}
}

func TestLDBCEndpointUpdateAndStats(t *testing.T) {
	ts := testServer(t)
	resp, out := post(t, ts, "/ldbc", service.LDBCRequest{Name: "IU8"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("IU8 status = %d: %v", resp.StatusCode, out)
	}
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["commitVersion"].(float64) < 1 {
		t.Fatalf("update did not commit: %v", st)
	}
}

func TestLDBCEndpointUnknownQuery(t *testing.T) {
	ts := testServer(t)
	resp, _ := post(t, ts, "/ldbc", service.LDBCRequest{Name: "IC99"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestLDBCEndpointBadParamType(t *testing.T) {
	ts := testServer(t)
	resp, _ := post(t, ts, "/ldbc", service.LDBCRequest{
		Name:   "IS1",
		Params: map[string]any{"personId": []any{1, 2}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// postRaw posts body as is and decodes the JSON answer.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestLDBCParamsBindByQuerySchema: /ldbc binds params by the names and kinds
// the query's own GenParams draws. A misspelled, missing, extra or mistyped
// parameter is a 400 naming it, never a zero or rounded value the query runs
// with; an integer past 2^53 binds exactly.
func TestLDBCParamsBindByQuerySchema(t *testing.T) {
	ts := testServer(t)
	for _, c := range []struct{ body, param string }{
		{`{"name":"IS1","params":{"personID":1}}`, "personID"},
		{`{"name":"IS1","params":{}}`, "personId"},
		{`{"name":"IS1","params":{"personId":1,"extra":2}}`, "extra"},
		{`{"name":"IS1","params":{"personId":"1"}}`, "personId"},
		{`{"name":"IS1","params":{"personId":1.5}}`, "personId"},
		{`{"name":"IS1","params":{"personId":1e2}}`, "personId"},
		{`{"name":"IS1","params":{"personId":9223372036854775808}}`, "personId"},
		{`{"name":"IC1","params":{"personId":1,"firstName":7}}`, "firstName"},
		{`{"name":"IC2","params":{"personId":1,"maxDate":null}}`, "maxDate"},
	} {
		resp, out := postRaw(t, ts, "/ldbc", c.body)
		msg, _ := out["error"].(string)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, `"`+c.param+`"`) {
			t.Errorf("%s: status %d, error %q; want 400 naming %q", c.body, resp.StatusCode, msg, c.param)
		}
	}
	for _, body := range []string{
		`{"name":"IS1","param":{"personId":1}}`, // unknown field: no silent draw
		`{"name":"IS1","params":{"personId":1}} {}`,
		`{"name":"IS1","params":{"personId":01}}`,
		``,
	} {
		if resp, out := postRaw(t, ts, "/ldbc", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status %d: %v; want 400", body, resp.StatusCode, out)
		}
	}
	const big = "9007199254740993" // 2^53 + 1: float64 would round it
	resp, out := postRaw(t, ts, "/ldbc", `{"name":"IS1","params":{"personId":`+big+`}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if got := out["stats"].(map[string]any)["params"].(map[string]any)["personId"]; got != big {
		t.Fatalf("stats.params.personId = %v, want %s", got, big)
	}
}

func TestStatsEndpointOverlaySection(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 0.03, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Inline reseals keep the counters deterministic under `go test`.
	ds.Graph.SetResealSubmit(nil)
	srv := service.New(ds, exec.ModeFused)
	ts := httptest.NewServer(srv.Mux())
	t.Cleanup(ts.Close)

	getOverlay := func() map[string]any {
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
		ov, ok := st["overlay"].(map[string]any)
		if !ok {
			t.Fatalf("no overlay section in /stats: %v", st)
		}
		return ov
	}

	// Freshly sealed: families with images, no delta, no reseals yet.
	ov := getOverlay()
	if ov["families"].(float64) <= 0 {
		t.Fatalf("families = %v", ov["families"])
	}
	if ov["withDelta"].(float64) != 0 || ov["reseals"].(float64) != 0 {
		t.Fatalf("fresh overlay not empty: %v", ov)
	}
	if ov["statsEpoch"].(float64) < 1 {
		t.Fatalf("statsEpoch = %v", ov["statsEpoch"])
	}
	fams := ov["perFamily"].([]any)
	if len(fams) == 0 {
		t.Fatal("perFamily empty")
	}
	f0 := fams[0].(map[string]any)
	for _, k := range []string{"src", "type", "dst", "dir", "sealedEntries", "inserts", "deltaFraction"} {
		if _, ok := f0[k]; !ok {
			t.Fatalf("perFamily missing %q: %v", k, f0)
		}
	}

	// Commits surface as delta depth and staleness; a forced reseal
	// advances the counters and the stats epoch. The graph's manager is the
	// server's.
	epoch := ov["statsEpoch"].(float64)
	h, mgr := ds.Graph, txn.NewManager(ds.Graph)
	commit := func(a, b vector.VID, date int64) {
		t.Helper()
		tx := mgr.Begin([]vector.VID{a, b})
		if err := tx.AddEdge(ds.H.Knows, a, b, vector.Date(date)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(ds.Persons[0], ds.Persons[1], 1)
	ov = getOverlay()
	if ov["withDelta"].(float64) == 0 || ov["inserts"].(float64) == 0 {
		t.Fatalf("overlay insert not visible: %v", ov)
	}
	if ov["statsStaleOps"].(float64) == 0 {
		t.Fatalf("staleness counter not bumped: %v", ov)
	}
	if ov["maxDeltaFraction"].(float64) <= 0 {
		t.Fatalf("maxDeltaFraction = %v", ov["maxDeltaFraction"])
	}

	h.SetResealPolicy(1e-9, 1)
	commit(ds.Persons[1], ds.Persons[2], 2)
	ov = getOverlay()
	if ov["reseals"].(float64) == 0 {
		t.Fatalf("reseal counter did not advance: %v", ov)
	}
	if ov["statsEpoch"].(float64) <= epoch {
		t.Fatalf("reseal did not bump the stats epoch: %v <= %v", ov["statsEpoch"], epoch)
	}
}

// TestStatsShowTheFold drives 500 IUs through /ldbc, a read after every
// tenth, then reads the fold off /stats: the committed edges sit in the
// graph's deltas (overlay.inserts), the reseal policy has folded some into
// the images (overlay.reseals), nothing is pinned once the requests are done
// so the fold horizon has caught up with the newest version (foldLag 0), no
// arena is still checked out, and the created vertices are graph vertices
// (vertices).
func TestStatsShowTheFold(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 0.03, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ds.Graph.SetResealSubmit(nil) // inline reseals: the counters are final when the requests return
	ts := httptest.NewServer(service.New(ds, exec.ModeFused).Mux())
	t.Cleanup(ts.Close)
	base := ds.Graph.NumVertices()
	const updates = 500
	created := 0
	for i := 0; i < updates; i++ {
		name := fmt.Sprintf("IU%d", i%8+1)
		if resp, out := post(t, ts, "/ldbc", service.LDBCRequest{Name: name}); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %v", name, resp.StatusCode, out)
		}
		switch name {
		case "IU1", "IU4", "IU6", "IU7": // each adds one vertex
			created++
		}
		if i%10 == 9 {
			if resp, out := post(t, ts, "/ldbc", service.LDBCRequest{Name: "IS3"}); resp.StatusCode != http.StatusOK {
				t.Fatalf("IS3: status %d: %v", resp.StatusCode, out)
			}
		}
	}
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	ov := st["overlay"].(map[string]any)
	if ov["inserts"].(float64) <= 0 || ov["reseals"].(float64) < 1 {
		t.Fatalf("after %d IUs: overlay.inserts = %v, overlay.reseals = %v", updates, ov["inserts"], ov["reseals"])
	}
	if ov["foldLag"].(float64) != 0 || ov["pins"].(float64) != 0 {
		t.Fatalf("quiesced: foldLag = %v, pins = %v", ov["foldLag"], ov["pins"])
	}
	if live := st["memory"].(map[string]any)["liveArenaBytes"].(float64); live != 0 {
		t.Fatalf("liveArenaBytes = %v after the requests returned", live)
	}
	if got := st["vertices"].(float64); got != float64(base+created) {
		t.Fatalf("vertices = %v, want %d base + %d created", got, base, created)
	}
	if got := st["commitVersion"].(float64); got != updates {
		t.Fatalf("commitVersion = %v, want %d", got, updates)
	}
}

func TestStatsEndpointMemorySection(t *testing.T) {
	ts := testServer(t)

	getMemory := func() map[string]any {
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
		mem, ok := st["memory"].(map[string]any)
		if !ok {
			t.Fatalf("no memory section in /stats: %v", st)
		}
		return mem
	}

	// Shape first: the gauges exist even before any query traffic.
	mem := getMemory()
	for _, k := range []string{"poolGets", "poolPuts", "poolHitRate", "liveArenaBytes", "clearedBytes", "classes", "objects", "gc"} {
		if _, ok := mem[k]; !ok {
			t.Fatalf("memory section missing %q: %v", k, mem)
		}
	}
	gc := mem["gc"].(map[string]any)
	for _, k := range []string{"cycles", "pauseTotalMs", "heapAllocBytes", "totalAllocBytes"} {
		if _, ok := gc[k]; !ok {
			t.Fatalf("gc section missing %q: %v", k, gc)
		}
	}

	// Query traffic draws arenas and buffers from the shared server pool, so
	// the counters move and every checked-out buffer comes back.
	for i := 0; i < 3; i++ {
		resp, out := post(t, ts, "/query", service.QueryRequest{
			Query: `MATCH (p:Person)-[:KNOWS]->(f)-[:KNOWS]->(g) RETURN COUNT(*) AS n`,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %v", resp.StatusCode, out)
		}
	}
	mem = getMemory()
	if mem["poolGets"].(float64) <= 0 {
		t.Fatalf("poolGets = %v after query traffic", mem["poolGets"])
	}
	objects := mem["objects"].(map[string]any)
	arenas := objects["arenas"].(map[string]any)
	if arenas["gets"].(float64) < 3 || arenas["puts"].(float64) < arenas["gets"].(float64) {
		t.Fatalf("arena counters did not bracket requests: %v", arenas)
	}
	if mem["liveArenaBytes"].(float64) != 0 {
		t.Fatalf("liveArenaBytes = %v after release, want 0", mem["liveArenaBytes"])
	}
	// The repeated identical query recycles its predecessor's buffers.
	if mem["poolHitRate"].(float64) <= 0 {
		t.Fatalf("poolHitRate = %v after repeated queries", mem["poolHitRate"])
	}
}

// memoryGauge reads one number of the /stats memory section.
func memoryGauge(t *testing.T, ts *httptest.Server, key string) float64 {
	t.Helper()
	return getStats(t, ts)["memory"].(map[string]any)[key].(float64)
}

func runLDBC(t *testing.T, ts *httptest.Server, name string, params map[string]any) {
	t.Helper()
	if resp, out := post(t, ts, "/ldbc", service.LDBCRequest{Name: name, Params: params}); resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status = %d: %v", name, resp.StatusCode, out)
	}
}

// TestStatsMemoryCoversLDBC pins the one-pool-per-server wiring: /ldbc
// requests draw from the pool /stats reports, and the live-bytes gauge is
// exactly zero once they have returned — reads that grow their buffers and
// an update included.
func TestStatsMemoryCoversLDBC(t *testing.T) {
	ts := testServer(t)
	runLDBC(t, ts, "ic9", map[string]any{"personId": 1, "maxDate": 40000})
	runLDBC(t, ts, "is1", map[string]any{"personId": 1})
	runLDBC(t, ts, "iu2", nil)
	runLDBC(t, ts, "ic5", map[string]any{"personId": 1, "minDate": 0})
	if gets := memoryGauge(t, ts, "poolGets"); gets <= 0 {
		t.Fatalf("poolGets = %v after /ldbc-only traffic", gets)
	}
	if live := memoryGauge(t, ts, "liveArenaBytes"); live != 0 {
		t.Fatalf("liveArenaBytes = %v at quiesce, want 0", live)
	}
}

// TestISClearsWhatItUsesAfterIC is the deterministic form of "IS inside the
// mix costs what IS alone costs": the bytes the pool zeroes for IS1–IS3 must
// not depend on what earlier requests grew the recycled objects to. (The
// count is per call, not per sync.Pool hit, so it holds under -race too.)
func TestISClearsWhatItUsesAfterIC(t *testing.T) {
	shortReads := func(ts *httptest.Server) float64 {
		before := memoryGauge(t, ts, "clearedBytes")
		for _, name := range []string{"is1", "is2", "is3"} {
			runLDBC(t, ts, name, map[string]any{"personId": 1})
		}
		return memoryGauge(t, ts, "clearedBytes") - before
	}
	alone := shortReads(testServer(t))

	ts := testServer(t)
	runLDBC(t, ts, "ic5", map[string]any{"personId": 1, "minDate": 0})
	runLDBC(t, ts, "ic9", map[string]any{"personId": 1, "maxDate": 40000})
	if after := shortReads(ts); alone <= 0 || after > 2*alone {
		t.Fatalf("IS1–IS3 cleared %v bytes after IC5+IC9, %v on a fresh server", after, alone)
	}
}

// TestQueryReplyCarriesEstimate: every /query reply carries the binder's
// estimate and anchor, whichever phase the graph was handed over in. A
// server's transaction manager seals a graph still in the bulk phase —
// commits write into the sealed images — so /stats statistics.present is
// true on a served graph and its plans are shaped by the statistics.
func TestQueryReplyCarriesEstimate(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		ds, err := ldbc.Generate(ldbc.Config{SF: 0.03, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !sealed {
			// A save/load round trip yields the same graph, never sealed.
			var buf bytes.Buffer
			if err := ds.Graph.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if ds.Graph, _, err = storage.Load(&buf); err != nil {
				t.Fatal(err)
			}
			if ds.Graph.Stats() != nil {
				t.Fatal("a loaded graph publishes statistics before its first seal")
			}
		}
		ts := httptest.NewServer(service.New(ds, exec.ModeFused).Mux())
		resp, out := post(t, ts, "/query", service.QueryRequest{
			Query: `MATCH (f:Person)<-[:KNOWS]-(p:Person) WHERE id(p) = 1 RETURN COUNT(*) AS c`,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sealed=%v: status = %d: %v", sealed, resp.StatusCode, out)
		}
		stats := out["stats"].(map[string]any)
		if _, ok := stats["estimatedRows"]; !ok {
			t.Fatalf("sealed=%v: query stats carry no estimate", sealed)
		}
		if got := stats["anchor"]; got != "p" {
			// Without statistics the plan would anchor at f, as written.
			t.Fatalf("sealed=%v: anchor = %v, want the id() seek on p", sealed, got)
		}
		r, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st map[string]any
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := st["statistics"].(map[string]any)["present"]; got != true {
			t.Fatalf("sealed=%v: statistics.present = %v", sealed, got)
		}
	}
}

// TestOversizeBodyRejected sends a body past MaxRequestBytes to both POST
// endpoints: each must answer 413 without reading it all, and the server must
// keep serving. Driven through the mux in-process so the verdict does not
// depend on how a socket handles an early close.
func TestOversizeBodyRejected(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 0.03, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mux := service.New(ds, exec.ModeFused).Mux()
	do := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	pad := strings.Repeat("x", service.MaxRequestBytes)
	for path, key := range map[string]string{"/query": "query", "/ldbc": "name"} {
		if rec := do(path, `{"`+key+`":"`+pad+`"}`); rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversize body answered %d, want 413: %s", path, rec.Code, rec.Body)
		}
	}
	if rec := do("/query", `{"query":"MATCH (p:Person) WHERE id(p) = 1 RETURN id(p)"}`); rec.Code != http.StatusOK {
		t.Fatalf("/query after an oversize body: %d: %s", rec.Code, rec.Body)
	}
	if rec := do("/ldbc", `{"name":"IS1"}`); rec.Code != http.StatusOK {
		t.Fatalf("/ldbc after an oversize body: %d: %s", rec.Code, rec.Body)
	}
}

// TestQueryComputedFloats sends computed float expressions through POST
// /query: id(p) * 2.5 used to answer 2 (every computed column was an
// integer), and a product overflowing to +Inf answers null — encoding/json
// refused it and the handler answered 200 with an empty body.
func TestQueryComputedFloats(t *testing.T) {
	ts := testServer(t)
	big := "1" + strings.Repeat("0", 300) + ".0"
	resp, out := post(t, ts, "/query", service.QueryRequest{
		Query: `MATCH (p:Person) WHERE id(p) = 1 RETURN id(p) * 2.5 AS x, id(p) * ` + big + ` * ` + big + ` AS y`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %v", resp.StatusCode, out)
	}
	rows := out["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if row := rows[0].([]any); len(row) != 2 || row[0] != 2.5 || row[1] != nil {
		t.Fatalf("row = %v, want [2.5 <nil>]", row)
	}
}
