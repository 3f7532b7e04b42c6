package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"ges/internal/core"
	"ges/internal/cypher"
	"ges/internal/ldbc/queries"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/service"
	"ges/internal/vector"
	"ges/internal/volcano"
)

// oracleParams is how many seeded parameter draws each read query and each
// Cypher template is checked with.
const oracleParams = 5

// toResult renders a flat block the way the service does (its toResult is
// not exported): the JSON-facing shape both the oracle comparison and the
// traced pipeline's encode step need.
func toResult(fb *core.FlatBlock, stats map[string]any) service.Result {
	resp := service.Result{Columns: []string{}, Rows: [][]any{}, Stats: stats}
	if fb == nil {
		return resp
	}
	resp.Columns = fb.Names
	for _, row := range fb.Rows {
		r := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case vector.KindInt64, vector.KindDate, vector.KindVID:
				r[j] = v.I
			case vector.KindFloat64:
				r[j] = v.F
			case vector.KindString:
				r[j] = v.S
			case vector.KindBool:
				r[j] = v.I != 0
			}
		}
		resp.Rows = append(resp.Rows, r)
	}
	return resp
}

// table is the part of a response the oracle compares.
type table struct {
	Columns []string            `json:"columns"`
	Rows    [][]json.RawMessage `json:"rows"`
}

// topN describes the ordering a plan promises: the result columns its last
// OrderBy sorts on, and its limit. ok is false when the plan has no OrderBy
// or sorts on a column the result does not carry.
func topN(p plan.Plan, columns []string) (keys []int, limit int, ok bool) {
	var ob *op.OrderBy
	for _, o := range p {
		if x, is := o.(*op.OrderBy); is {
			ob = x
		}
	}
	if ob == nil {
		return nil, 0, false
	}
	for _, k := range ob.Keys {
		i := slices.Index(columns, k.Col)
		if i < 0 {
			return nil, 0, false
		}
		keys = append(keys, i)
	}
	return keys, ob.Limit, true
}

// sameResult reports whether two results are the same answer to the plan.
// Byte equality is the common case. Otherwise the engines may have broken
// ties differently, which the query allows: the sort-key sequence must still
// agree row by row, and the rows must agree as a multiset — except those
// tied with the last row of a full top-N, where either engine may keep any
// of the tied candidates.
func sameResult(got, want []byte, p plan.Plan) bool {
	if bytes.Equal(got, want) {
		return true
	}
	var g, w table
	if json.Unmarshal(append(got[:len(got):len(got)], '}'), &g) != nil ||
		json.Unmarshal(append(want[:len(want):len(want)], '}'), &w) != nil {
		return false
	}
	if !slices.Equal(g.Columns, w.Columns) || len(g.Rows) != len(w.Rows) {
		return false
	}
	keys, limit, ordered := topN(p, w.Columns)
	keyOf := func(row []json.RawMessage) string {
		var b []byte
		for _, k := range keys {
			b = append(append(b, row[k]...), 0)
		}
		return string(b)
	}
	whole := func(row []json.RawMessage) string {
		var b []byte
		for _, v := range row {
			b = append(append(b, v...), 0)
		}
		return string(b)
	}
	boundary, cut := "", false
	if ordered {
		for i := range w.Rows {
			if keyOf(g.Rows[i]) != keyOf(w.Rows[i]) {
				return false
			}
		}
		if n := len(w.Rows); limit > 0 && n == limit {
			boundary, cut = keyOf(w.Rows[n-1]), true
		}
	}
	count := map[string]int{}
	for i := range w.Rows {
		if cut && keyOf(w.Rows[i]) == boundary {
			continue
		}
		count[whole(w.Rows[i])]++
	}
	for i := range g.Rows {
		if cut && keyOf(g.Rows[i]) == boundary {
			continue
		}
		count[whole(g.Rows[i])]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// wantRows is the byte form rowsPart gives for a response carrying fb.
func wantRows(fb *core.FlatBlock) ([]byte, error) {
	b, err := json.Marshal(toResult(fb, nil))
	if err != nil {
		return nil, err
	}
	return rowsPart(b), nil
}

// checkOracle compares the handler's rows with the tuple-at-a-time volcano
// engine on the same, still pristine graph: every read query the workload
// draws from, on /ldbc, or every Cypher template on /query, each with
// oracleParams draws made with setupSeed. Queries outside the workload's mix are left
// alone, so is_point's server has seen no IC when timing starts. The
// Cypher side compiles the text as written (no normalisation, no cost model),
// so it also checks that the cached, cost-shaped plan returns the same rows.
func checkOracle(e *env, wl workload) (checked int, err error) {
	c := newClient(e.mux)
	seed := streamSeed(setupSeed, streamOracle)
	check := func(req request, fb *core.FlatBlock, p plan.Plan) error {
		want, err := wantRows(fb)
		if err != nil {
			return err
		}
		if _, err := c.do("POST", req.path, req.body); err != nil {
			return err
		}
		if !c.ok() {
			return fmt.Errorf("oracle %s %s: status %d: %s", req.name, req.body, c.w.code, c.w.body.Bytes())
		}
		if got := rowsPart(c.w.body.Bytes()); !sameResult(got, want, p) {
			return fmt.Errorf("oracle mismatch on %s %s:\n handler %s\n volcano %s", req.name, req.body, got, want)
		}
		checked++
		return nil
	}

	if wl.readerMix == nil {
		pg := e.ds.NewParamGen(seed)
		vol := volcano.New()
		for _, t := range cypherTemplates {
			for i := 0; i < oracleParams; i++ {
				text := fmt.Sprintf(t.text, t.arg(e.ds, pg))
				p, err := cypher.Compile(text, e.ds.H.Cat)
				if err != nil {
					return checked, fmt.Errorf("oracle compile %s: %w", t.name, err)
				}
				res, err := vol.Run(e.ds.Graph, p)
				if err != nil {
					return checked, fmt.Errorf("oracle run %s: %w", t.name, err)
				}
				if err := check(cypherRequest(t.name, text, classHit), res.Block, p); err != nil {
					return checked, err
				}
			}
		}
		return checked, nil
	}

	oracle := queries.NewRunnerWith(e.ds, volcano.New(), nil)
	pg := e.ds.NewParamGen(seed)
	for _, q := range wl.readerMix {
		if q.Kind == queries.IU {
			continue
		}
		for i := 0; i < oracleParams; i++ {
			p := q.GenParams(e.ds, pg)
			fb, _, err := oracle.Execute(q, p)
			if err != nil {
				return checked, fmt.Errorf("oracle run: %w", err)
			}
			var built plan.Plan
			if q.Build != nil {
				built = q.Build(e.ds.H, p)
			}
			if err := check(ldbcRequest(q, p), fb, built); err != nil {
				return checked, err
			}
		}
	}
	return checked, nil
}

// readbackSample is how many acknowledged writes of each kind are read back.
const readbackSample = 8

// checkQuiesced runs after a writing workload has stopped: the commit
// version must equal the acknowledged updates, no arena may still be checked
// out, and a seeded sample of acknowledged IU6/IU7/IU8 writes must be visible
// through /ldbc reads.
func checkQuiesced(e *env, cfg config, res *passResult) error {
	c := newClient(e.mux)
	st, err := c.getStats()
	if err != nil {
		return err
	}
	if got := int(num(st, "commitVersion")); got != e.ackedIU {
		return fmt.Errorf("commitVersion %d != %d acknowledged updates", got, e.ackedIU)
	}
	if live := num(st, "memory", "liveArenaBytes"); live != 0 {
		return fmt.Errorf("liveArenaBytes = %v after quiesce, want 0", live)
	}

	rng := rand.New(rand.NewSource(streamSeed(cfg.seed, streamReadback)))
	byName := map[string][]request{}
	for _, r := range res.acked {
		byName[r.name] = append(byName[r.name], r)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rs := byName[n]
		for i := 0; i < readbackSample && i < len(rs); i++ {
			if err := readBack(c, rs[rng.Intn(len(rs))]); err != nil {
				return err
			}
		}
	}
	return nil
}

// readBack looks for one acknowledged write through the read query that
// returns it.
func readBack(c *client, w request) error {
	var q *queries.Query
	var p queries.Params
	var found func(row []any) bool
	eq := func(v any, want int64) bool { f, ok := v.(float64); return ok && int64(f) == want }
	switch w.name {
	case "IU6": // a new post: IS4 returns its content
		q, p = queries.IS4, queries.Params{"messageId": w.params["postId"], "isPost": vector.Int64(1)}
		found = func(row []any) bool { return len(row) == 2 && row[1] == "new post" }
	case "IU7": // a new comment: IS4 likewise
		q, p = queries.IS4, queries.Params{"messageId": w.params["commentId"], "isPost": vector.Int64(0)}
		found = func(row []any) bool { return len(row) == 2 && row[1] == "new reply" }
	case "IU8": // a new friendship: IS3 lists person2 among person1's friends
		q, p = queries.IS3, queries.Params{"personId": w.params["person1Id"]}
		found = func(row []any) bool { return len(row) > 0 && eq(row[0], w.params.Int("person2Id")) }
	default:
		return nil
	}
	req := ldbcRequest(q, p)
	if _, err := c.do("POST", req.path, req.body); err != nil {
		return err
	}
	var out service.Result
	if !c.ok() {
		return fmt.Errorf("read-back of %s %s: status %d", w.name, w.body, c.w.code)
	}
	if err := json.Unmarshal(c.w.body.Bytes(), &out); err != nil {
		return fmt.Errorf("read-back of %s: %w", w.name, err)
	}
	for _, row := range out.Rows {
		if found(row) {
			return nil
		}
	}
	return fmt.Errorf("acknowledged write %s %s is not readable through %s", w.name, w.body, req.body)
}

// num walks a decoded JSON tree and returns the number at path, or 0.
func num(m map[string]any, path ...string) float64 {
	var cur any = m
	for _, k := range path {
		mm, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = mm[k]
	}
	f, _ := cur.(float64)
	return f
}
