package cypher_test

import (
	"fmt"
	"reflect"
	"testing"

	"ges/internal/catalog"
	"ges/internal/cypher"
	"ges/internal/op"
	"ges/internal/plan"
	"ges/internal/testgraph"
)

// TestAsWrittenShape pins the plan the binder's one walk builds without
// statistics: every scan, seek, hop and filter estimates 1, so ties keep the
// first labelled node as the anchor — whatever a later node's WHERE says —
// and run the relationships in written order and direction. Single-variable
// filters sit where their variable binds. Each row also records the anchor
// the same text takes once the fixture's statistics exist; where it differs,
// cost alone moves it.
func TestAsWrittenShape(t *testing.T) {
	f := testgraph.New()
	f.Graph.SealCSR()
	cm := plan.NewCostModel(f.Graph.Stats())
	if cm == nil {
		t.Fatal("sealed fixture published no statistics")
	}
	for _, c := range []struct {
		name       string
		text       string
		want       []string
		costAnchor string
	}{
		{"later-selective-predicate",
			`MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE b.firstName = 'Ada' RETURN id(a)`,
			[]string{"scan a", "a-[KNOWS]->b", "filter"}, "b"},
		{"later-id-equality",
			`MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE id(b) = 100 RETURN id(a)`,
			[]string{"scan a", "a-[KNOWS]->b", "filter"}, "b"},
		{"later-not",
			`MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE NOT (b.firstName = 'Ada') RETURN id(a)`,
			[]string{"scan a", "a-[KNOWS]->b", "filter"}, "b"},
		{"later-id-equality-two-hops",
			`MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WHERE id(c) = 100 RETURN id(a)`,
			[]string{"scan a", "a-[KNOWS]->b", "b-[KNOWS]->c", "filter"}, "c"},
		{"first-node-filter-pushed",
			`MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)
			 WHERE a.firstName = 'Ada' AND c.firstName = 'Eve' AND a.creationDate < c.creationDate RETURN id(c)`,
			[]string{"scan a", "filter", "a-[KNOWS]->b", "b-[KNOWS]->c", "filter", "filter"}, "a"},
		{"first-node-seek",
			`MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE b.firstName = 'Bob' AND id(a) = 100 RETURN id(b)`,
			[]string{"seek a", "a-[KNOWS]->b", "filter"}, "a"},
		{"mixed-directions",
			`MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post)<-[:LIKES]-(q:Person)-[:KNOWS]-(r:Person) RETURN COUNT(*) AS n`,
			[]string{"scan p", "p<-[HAS_CREATOR]-m", "m<-[LIKES]-q", "q-[KNOWS]-r"}, "m"},
		{"var-length-closure",
			`MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS*1..2]->(a) WHERE id(b) = 101 RETURN COUNT(*) AS n`,
			[]string{"scan a", "a-[KNOWS]->b", "filter", "into b-[KNOWS*1..2]->a"}, "b"},
		{"continuing-clause",
			`MATCH (a:Person)-[:KNOWS]->(b:Person) MATCH (b)<-[:HAS_CREATOR]-(m:Post) WHERE id(m) = 200 RETURN id(a)`,
			[]string{"scan a", "a-[KNOWS]->b", "b<-[HAS_CREATOR]-m", "filter"}, "a"},
		// The one exception to written order: an unlabelled first node can
		// anchor neither a scan nor a seek, so the walk starts at the first
		// labelled node and mirrors the relationship before it.
		{"unlabelled-first-node",
			`MATCH (x)-[:HAS_CREATOR]->(p:Person) WHERE id(x) = 200 RETURN id(p)`,
			[]string{"scan p", "p<-[HAS_CREATOR]-x", "filter"}, "p"},
	} {
		t.Run(c.name, func(t *testing.T) {
			asWritten, err := cypher.CompileWith(c.text, f.Cat, cypher.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := walk(f.Cat, asWritten.Plan); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("without statistics the walk is\n%q\nwant\n%q", got, c.want)
			}
			if want := c.want[0][len("scan "):]; asWritten.Est.Anchor != want {
				t.Fatalf("estimate names anchor %q, want %q", asWritten.Est.Anchor, want)
			}
			costed, err := cypher.CompileWith(c.text, f.Cat, cypher.Options{Cost: cm})
			if err != nil {
				t.Fatal(err)
			}
			if costed.Est.Anchor != c.costAnchor {
				t.Fatalf("with statistics the anchor is %q, want %q:\n%s", costed.Est.Anchor, c.costAnchor, costed.Plan)
			}
		})
	}
}

// walk renders a plan's anchor, traversals and filters in plan order: each
// relationship from its source as the plan runs it, so a mirrored one reads
// mirrored against the query text.
func walk(cat *catalog.Catalog, p plan.Plan) []string {
	rel := func(from string, et catalog.EdgeTypeID, dir catalog.Direction, min, max int, to string) string {
		hops := ""
		if min != 1 || max != 1 {
			hops = fmt.Sprintf("*%d..%d", min, max)
		}
		body := "[" + cat.EdgeTypeName(et) + hops + "]"
		switch dir {
		case catalog.Out:
			return from + "-" + body + "->" + to
		case catalog.In:
			return from + "<-" + body + "-" + to
		}
		return from + "-" + body + "-" + to
	}
	var out []string
	for _, o := range p {
		switch o := o.(type) {
		case *op.NodeScan:
			out = append(out, "scan "+o.Var)
		case *op.NodeByIdSeek:
			out = append(out, "seek "+o.Var)
		case *op.Expand:
			out = append(out, rel(o.From, o.Et, o.Dir, 1, 1, o.To))
		case *op.VarLengthExpand:
			out = append(out, rel(o.From, o.Et, o.Dir, o.MinHops, o.MaxHops, o.To))
		case *op.ExpandInto:
			out = append(out, "into "+rel(o.From, o.Et, o.Dir, o.MinHops, o.MaxHops, o.To))
		case *op.Filter:
			out = append(out, "filter")
		}
	}
	return out
}
