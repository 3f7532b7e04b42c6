package cypher_test

import (
	"reflect"
	"testing"

	"ges/internal/cypher"
	"ges/internal/exec"
	"ges/internal/plan"
	"ges/internal/testgraph"
	"ges/internal/vector"
)

func TestNormalizeExtractsLiterals(t *testing.T) {
	norm, params, err := cypher.Normalize(
		`MATCH (p:Person) WHERE p.age > 30 AND p.name = 'Ann' RETURN id(p)`)
	if err != nil {
		t.Fatal(err)
	}
	want := `MATCH ( p : Person ) WHERE p . age > $1 AND p . name = $2 RETURN ID ( p )`
	if norm != want {
		t.Fatalf("normalized = %q, want %q", norm, want)
	}
	wantParams := []vector.Value{vector.Int64(30), vector.String_("Ann")}
	if !reflect.DeepEqual(params, wantParams) {
		t.Fatalf("params = %v, want %v", params, wantParams)
	}
}

func TestNormalizeFoldsWhitespaceAndKeywordCase(t *testing.T) {
	a, pa, err := cypher.Normalize("match (p:Person)  where p.age > 30\n\treturn id(p)")
	if err != nil {
		t.Fatal(err)
	}
	b, pb, err := cypher.Normalize("MATCH (p:Person) WHERE p.age > 99 RETURN id(p)")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("whitespace/case/literal variants split the cache key:\n%q\n%q", a, b)
	}
	if pa[0].I != 30 || pb[0].I != 99 {
		t.Fatalf("params = %v / %v", pa, pb)
	}
}

// TestNormalizeKeepsStructuralLiterals pins the inline rules: literals that
// shape the plan (SKIP/LIMIT counts, bracketed hop bounds and IN-lists,
// string-predicate patterns) must never become parameters.
func TestNormalizeKeepsStructuralLiterals(t *testing.T) {
	cases := []struct {
		src     string
		nparams int
	}{
		{`MATCH (p:Person) RETURN id(p) SKIP 2 LIMIT 5`, 0},
		{`MATCH (p:Person)-[:KNOWS*1..3]->(f) RETURN id(f)`, 0},
		{`MATCH (p:Person) WHERE p.age IN [30, 40] RETURN id(p)`, 0},
		{`MATCH (p:Person) WHERE p.name CONTAINS 'nn' RETURN id(p)`, 0},
		{`MATCH (p:Person) WHERE p.age = 30 RETURN id(p) LIMIT 5`, 1},
	}
	for _, c := range cases {
		norm, params, err := cypher.Normalize(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if len(params) != c.nparams {
			t.Fatalf("%s -> %q extracted %d params, want %d", c.src, norm, len(params), c.nparams)
		}
	}
}

func TestNormalizePassesThroughExplicitParams(t *testing.T) {
	norm, params, err := cypher.Normalize(`MATCH (p:Person) WHERE id(p) = $1 AND p.age > 30 RETURN id(p)`)
	if err != nil {
		t.Fatal(err)
	}
	if params != nil {
		t.Fatalf("explicit-$k text must not extract literals, got %v", params)
	}
	if norm != `MATCH ( p : Person ) WHERE ID ( p ) = $1 AND p . age > 30 RETURN ID ( p )` {
		t.Fatalf("canonical text = %q", norm)
	}
}

// TestNormalizeIdempotent: normalizing the normalized text is a fixpoint
// (the $k placeholders pass through, nothing further is extracted).
func TestNormalizeIdempotent(t *testing.T) {
	norm, _, err := cypher.Normalize(`MATCH (p:Person) WHERE p.age > 30 RETURN id(p)`)
	if err != nil {
		t.Fatal(err)
	}
	again, params, err := cypher.Normalize(norm)
	if err != nil {
		t.Fatal(err)
	}
	if again != norm || params != nil {
		t.Fatalf("not a fixpoint: %q -> %q (params %v)", norm, again, params)
	}
}

func TestNormalizeQuoteEscaping(t *testing.T) {
	norm, params, err := cypher.Normalize(`MATCH (p:Person) WHERE p.name IN ['O\'Brien'] RETURN id(p)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != 0 {
		t.Fatalf("IN-list literal extracted: %v", params)
	}
	// The canonical text must re-lex to the same string value.
	if _, _, err := cypher.Normalize(norm); err != nil {
		t.Fatalf("canonical text does not re-lex: %q: %v", norm, err)
	}
}

// TestParamRoundTrip runs the paper's example query three ways — literal
// text, and normalized text + re-bound params planned without statistics
// and with them — across all engine modes, and demands identical rows.
func TestParamRoundTrip(t *testing.T) {
	f := testgraph.New()
	src := `
		MATCH (p:Person)-[:KNOWS*1..2]->(fr) WHERE id(p) = 100
		WITH fr
		MATCH (fr)<-[:HAS_CREATOR]-(msg) WHERE msg.length > 125
		RETURN id(fr), id(msg), msg.length AS len
		ORDER BY len DESC, id(fr) ASC
		LIMIT 2`
	norm, params, err := cypher.Normalize(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != 2 { // id(p) literal and the length threshold
		t.Fatalf("extracted %d params (%v), want 2", len(params), params)
	}
	f.Graph.SealCSR()
	cm := plan.NewCostModel(f.Graph.Stats())

	for _, mode := range []exec.Mode{exec.ModeFlat, exec.ModeFactorized, exec.ModeFused} {
		want := rowStrings(runCypher(t, f, mode, src))
		for name, opts := range map[string]cypher.Options{
			"without statistics": {Params: params},
			"with statistics":    {Params: params, Cost: cm},
		} {
			c, err := cypher.CompileWith(norm, f.Cat, opts)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", mode, name, err)
			}
			res, err := exec.New(mode).Run(f.Graph, plan.BindParams(c.Plan, params))
			if err != nil {
				t.Fatalf("%s/%s: run: %v", mode, name, err)
			}
			if got := rowStrings(res.Block); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: rows diverge from literal text:\n%v\nwant %v", mode, name, got, want)
			}
		}
	}
}

// TestUnboundParamFails: executing a parameterized plan without binding the
// values must fail loudly, not silently match id 0.
func TestUnboundParamFails(t *testing.T) {
	f := testgraph.New()
	c, err := cypher.CompileWith(
		`MATCH ( p : Person ) WHERE p . age > $1 RETURN ID ( p )`, f.Cat,
		cypher.Options{Params: []vector.Value{vector.Int64(30)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.New(exec.ModeFused).Run(f.Graph, c.Plan); err == nil {
		t.Fatal("running with unbound $1 must error")
	}
}
