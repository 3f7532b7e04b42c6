package queries_test

import (
	"fmt"
	"testing"

	"ges/internal/cypher"
	"ges/internal/exec"
	"ges/internal/ldbc"
	"ges/internal/ldbc/queries"
	"ges/internal/op"
	"ges/internal/plan"
)

// goldenReads pins the served (GES_f*) plan of every plan-built LDBC read.
var goldenReads = map[string]string{
	"IC1":  "NodeByIdSeek -> VarLengthExpand -> Project -> Filter -> OrderBy(late f.birthday,f.browser)",
	"IC2":  "SeekExpand(fused) -> Expand(merge newest 20) -> Project -> OrderBy(late msg.content,f.id,f.firstName,f.lastName)",
	"IC3":  "NodeByIdSeek -> NodeScan -> Project -> Filter -> ProjectExpr -> ProjectExpr -> Expand -> Expand -> ExpandInto -> Aggregate -> Filter -> ProjectExpr -> OrderBy",
	"IC4":  "SeekExpand(fused) -> Expand(fused-filter) -> Project -> Expand -> Project -> Aggregate -> Filter -> OrderBy",
	"IC5":  "NodeByIdSeek -> VarLengthExpand -> Expand -> Filter -> AggregateProjectTop(fused, per-group count post)",
	"IC6":  "NodeByIdSeek -> NodeScan -> Project -> Filter -> Expand -> Expand -> ExpandInto -> Expand(fused-filter) -> Project -> AggregateProjectTop(fused)",
	"IC7":  "SeekExpand(fused) -> Expand -> Project -> OrderBy(late msg.id,liker.firstName,liker.lastName)",
	"IC8":  "SeekExpand(fused) -> Expand -> Project -> Expand -> OrderBy(late author.id,author.firstName,author.lastName,reply.content)",
	"IC9":  "NodeByIdSeek -> VarLengthExpand -> Expand(merge newest 20) -> Project -> OrderBy(late msg.content,f.id,f.firstName,f.lastName)",
	"IC10": "NodeByIdSeek -> VarLengthExpand -> Project -> ProjectExpr -> Filter -> PatternCount(totalPosts: Expand) -> PatternCount(commonCount: Expand -> ExpandIntersect) -> ProjectExpr -> OrderBy(late foaf.firstName)",
	"IC11": "NodeByIdSeek -> NodeScan -> Project -> Filter -> Expand -> Expand -> Filter -> ExpandInto -> Project -> OrderBy(late f.firstName)",
	"IC12": "SeekExpand(fused) -> Expand -> Expand -> Expand -> Expand(fused-filter) -> Project -> AggregateProjectTop(fused)",
	"IS1":  "NodeByIdSeek -> Project -> Defactor",
	"IS2":  "SeekExpand(fused) -> Project -> OrderBy(late msg.content)",
	"IS3":  "NodeByIdSeek -> Expand -> Project -> OrderBy",
	"IS4":  "NodeByIdSeek -> Project -> Defactor",
	"IS5":  "SeekExpand(fused) -> Project -> Defactor",
	"IS7":  "SeekExpand(fused) -> Project -> Expand -> Project -> OrderBy",
}

// adhocTemplates are the ad-hoc Cypher templates of the repository
// benchmark's cypher_adhoc workload, copied from benchmark/workload.go
// (cypherTemplates) with a fixed literal in place of each %v, and the
// served plan each prepares to.
var adhocTemplates = []struct{ name, text, plan string }{
	{"seek_1hop", `MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE id(p) = 933 RETURN id(f) AS friend, f.firstName AS firstName, f.lastName AS lastName LIMIT 20`, "SeekExpand(fused) -> Project -> Limit -> Rename"},
	{"fat_2hop", `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person) WHERE id(p) = 933 RETURN id(f) AS f, id(g) AS g, g.firstName AS firstName, g.lastName AS lastName, g.locationIP AS ip, g.browserUsed AS browser LIMIT 600`, "SeekExpand(fused) -> Expand -> Project -> Limit -> Rename"},
	{"varlen_count", `MATCH (p:Person)-[:KNOWS*1..2]->(g:Person) WHERE id(p) = 933 RETURN COUNT(*) AS n`, "NodeByIdSeek -> VarLengthExpand -> Aggregate -> Defactor"},
	{"triangle", `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:KNOWS]->(a) WHERE id(a) = 933 RETURN COUNT(*) AS n`, "NodeByIdSeek -> Expand -> ExpandIntersect -> Aggregate -> Defactor"},
	{"scan_filter_top", `MATCH (p:Person) WHERE p.browserUsed = 'Firefox' RETURN id(p) AS person, p.creationDate AS created ORDER BY created DESC, person LIMIT 10`, "NodeScan -> Project -> Filter -> Project -> OrderBy -> Rename"},
	{"reverse_2hop_agg", `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WHERE id(c) = 933 RETURN COUNT(*) AS n, SUM(id(a)) AS s`, "SeekExpand(fused) -> Expand -> Project -> Aggregate -> Defactor"},
	{"creator_projection", `MATCH (m:Post)-[:HAS_CREATOR]->(p:Person) WHERE id(p) = 933 RETURN id(m) AS post, m.content AS content, m.creationDate AS created`, "SeekExpand(fused) -> Project -> Defactor -> Rename"},
	{"lookup", `MATCH (p:Person) WHERE id(p) = 933 RETURN p.firstName AS firstName, p.lastName AS lastName, p.gender AS gender, p.birthday AS birthday`, "NodeByIdSeek -> Project -> Defactor -> Rename"},
}

// TestGoldenServedPlans pins the served plans of the 18 plan-built LDBC
// reads (IC1–IC12, IS1–IS5, IS7) and the 8 ad-hoc templates on the
// benchmark's graph (simSF 1, seed 1), and holds every plan to the shape the
// operators rely on: no operator that grows or annotates the f-Tree, or an
// aggregate that folds it, follows an operator that emits the de-factored
// one-node tree (PatternCount paths included). Such an operator would run on
// the de-factored tuples; no served plan takes that entry.
func TestGoldenServedPlans(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pg := ds.NewParamGen(7)
	served := map[string]plan.Plan{}
	for _, q := range queries.All() {
		if q.Build == nil {
			continue
		}
		served[q.Name] = exec.Physical(exec.ModeFused, q.Build(ds.H, q.GenParams(ds, pg)))
	}
	if len(served) != 18 {
		t.Fatalf("%d plan-built reads, want 18 (IC1–IC12, IS1–IS5, IS7)", len(served))
	}
	for name, p := range served {
		if got := p.String(); got != goldenReads[name] {
			t.Errorf("%s plan:\n got %s\nwant %s", name, got, goldenReads[name])
		}
		checkServedShape(t, name, p)
	}
	cache := cypher.NewCache(ds.Graph)
	for _, a := range adhocTemplates {
		pr, err := cache.Prepare(a.text)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		p := exec.Physical(exec.ModeFused, pr.Plan)
		if got := p.String(); got != a.plan {
			t.Errorf("%s plan:\n got %s\nwant %s", a.name, got, a.plan)
		}
		checkServedShape(t, a.name, p)
	}
}

// takesTree reports whether o runs on the f-Tree: the operators that grow,
// annotate or fold it.
func takesTree(o op.Operator) bool {
	switch o.(type) {
	case *op.Expand, *op.ExpandInto, *op.ExpandIntersect, *op.VarLengthExpand,
		*op.ProjectProps, *op.PatternCount, *op.NodeScan,
		*op.Aggregate, *op.AggregateProjectTop:
		return true
	}
	return false
}

// emitsFlat reports whether o always emits the de-factored one-node tree.
func emitsFlat(o op.Operator) bool {
	switch o.(type) {
	case *op.Aggregate, *op.AggregateProjectTop, *op.Defactor, *op.OrderBy, *op.Limit, *op.Distinct:
		return true
	}
	return false
}

// flatBeforeTree returns the first operator of p, or of a PatternCount path
// in p, that runs on the tree after an operator that emits the de-factored
// form.
func flatBeforeTree(p []op.Operator) string {
	flat := ""
	for _, o := range p {
		if takesTree(o) && flat != "" {
			return fmt.Sprintf("%s after %s", o.Name(), flat)
		}
		if pc, ok := o.(*op.PatternCount); ok {
			if bad := flatBeforeTree(pc.Path); bad != "" {
				return bad
			}
		}
		if emitsFlat(o) {
			flat = o.Name()
		}
	}
	return ""
}

// checkServedShape fails when an operator that runs on the tree follows an
// operator that emits the de-factored form in p.
func checkServedShape(t *testing.T, name string, p plan.Plan) {
	t.Helper()
	if bad := flatBeforeTree(p); bad != "" {
		t.Errorf("%s: %s", name, bad)
	}
}
