package ges_test

import (
	"strings"
	"sync"
	"testing"

	"ges"
)

func socialDB(t testing.TB, mode ges.Mode) *ges.DB {
	t.Helper()
	db := ges.Open(mode)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.DefineVertexType("Person",
		ges.Prop{Name: "name", Type: ges.String},
		ges.Prop{Name: "age", Type: ges.Int64}))
	must(db.DefineVertexType("Post",
		ges.Prop{Name: "title", Type: ges.String},
		ges.Prop{Name: "score", Type: ges.Int64}))
	must(db.DefineEdgeType("KNOWS"))
	must(db.DefineEdgeType("WROTE"))
	people := []struct {
		id   int64
		name string
		age  int64
	}{{1, "ada", 30}, {2, "bob", 25}, {3, "cyn", 41}, {4, "dan", 22}}
	for _, p := range people {
		must(db.AddVertex("Person", p.id, ges.Props{"name": p.name, "age": p.age}))
	}
	for i := int64(1); i <= 6; i++ {
		must(db.AddVertex("Post", i, ges.Props{"title": "post", "score": i * 10}))
	}
	for _, e := range [][2]int64{{1, 2}, {2, 3}, {3, 4}, {1, 3}} {
		must(db.AddEdge("KNOWS", "Person", e[0], "Person", e[1], nil))
	}
	for _, e := range [][2]int64{{1, 1}, {2, 2}, {2, 3}, {3, 4}, {4, 5}, {4, 6}} {
		must(db.AddEdge("WROTE", "Person", e[0], "Post", e[1], nil))
	}
	return db
}

func TestQuickstartFlow(t *testing.T) {
	for _, mode := range []ges.Mode{ges.Flat, ges.Factorized, ges.Fused} {
		db := socialDB(t, mode)
		res, err := db.Query(`
			MATCH (p:Person)-[:KNOWS]->(f)-[:WROTE]->(post)
			WHERE id(p) = 1 AND post.score >= 30
			RETURN f.name, id(post), post.score
			ORDER BY post.score DESC`)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("mode %d: rows = %v", mode, res.Rows)
		}
		if res.Rows[0][0] != "cyn" || res.Rows[0][2] != int64(40) {
			t.Fatalf("row0 = %v", res.Rows[0])
		}
		if res.Rows[1][0] != "bob" || res.Rows[1][2] != int64(30) {
			t.Fatalf("row1 = %v", res.Rows[1])
		}
		if res.Stats.DurationNanos <= 0 {
			t.Fatal("missing duration stats")
		}
	}
}

func TestWritesAfterSeal(t *testing.T) {
	db := socialDB(t, ges.Fused)
	// First query seals.
	if _, err := db.Query(`MATCH (p:Person) RETURN COUNT(*) AS n`); err != nil {
		t.Fatal(err)
	}
	if err := db.AddVertex("Person", 99, ges.Props{"name": "eve", "age": 19}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddEdge("KNOWS", "Person", 1, "Person", 99, nil); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`
		MATCH (p:Person)-[:KNOWS]->(f) WHERE id(p) = 1
		RETURN f.name ORDER BY f.name`)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range res.Rows {
		names = append(names, r[0].(string))
	}
	if strings.Join(names, ",") != "bob,cyn,eve" {
		t.Fatalf("names = %v", names)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := socialDB(t, ges.Fused)
	db.Seal()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(100); i < 150; i++ {
			if err := db.AddVertex("Person", i, ges.Props{"name": "w", "age": i}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			res, err := db.Query(`MATCH (p:Person) RETURN COUNT(*) AS n`)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Rows[0][0].(int64) < 4 {
				t.Errorf("count shrank: %v", res.Rows[0][0])
				return
			}
		}
	}()
	wg.Wait()
}

// TestSetModeDuringQueries switches the engine variant while other
// goroutines query and explain: each call reads it once under the
// database's lock, so this passes under -race, and every variant returns
// the same rows.
func TestSetModeDuringQueries(t *testing.T) {
	db := socialDB(t, ges.Fused)
	const q = `MATCH (p:Person)-[:KNOWS*1..2]->(f) WHERE id(p) = 1 RETURN COUNT(*) AS n`
	ref, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Rows[0][0]
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				res, err := db.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.Rows[0][0]; got != want {
					t.Errorf("count = %v, want %v", got, want)
					return
				}
				if _, err := db.Explain(q); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	modes := []ges.Mode{ges.Flat, ges.Factorized, ges.Fused}
	for i := 0; i < 60; i++ {
		db.SetMode(modes[i%len(modes)])
	}
	wg.Wait()
}

func TestSchemaErrors(t *testing.T) {
	db := ges.Open(ges.Fused)
	if err := db.DefineVertexType("P"); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineVertexType("P"); err == nil {
		t.Fatal("duplicate label must fail")
	}
	if err := db.AddVertex("Nope", 1, nil); err == nil {
		t.Fatal("unknown label must fail")
	}
	if err := db.AddVertex("P", 1, ges.Props{"ghost": 1}); err == nil {
		t.Fatal("unknown property must fail")
	}
	if err := db.AddEdge("E", "P", 1, "P", 2, nil); err == nil {
		t.Fatal("unknown edge type must fail")
	}
}

func TestExplainShowsFusion(t *testing.T) {
	db := socialDB(t, ges.Fused)
	s, err := db.Explain(`
		MATCH (p:Person)-[:KNOWS]->(f) WHERE id(p) = 1
		RETURN COUNT(*) AS n ORDER BY n DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "AggregateProjectTop(fused)") {
		t.Fatalf("fused plan missing AggregateProjectTop: %s", s)
	}
	if !strings.Contains(s, "SeekExpand(fused)") {
		t.Fatalf("fused plan missing SeekExpand: %s", s)
	}
	// Posts only counted per friend are counted once per friend, by the
	// aggregate grouped by the friend; under a global count they stay a plain
	// expand, whose rows the aggregate counts through the f-Tree's weights.
	// An output column no sort key reads is gathered after the cut.
	s, err = db.Explain(`
		MATCH (p:Person)-[:KNOWS]->(f:Person)-[:WROTE]->(post:Post) WHERE id(p) = 1
		RETURN id(f) AS fid, COUNT(*) AS n ORDER BY n DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "SeekExpand(fused) -> AggregateProjectTop(fused, per-group count post)") {
		t.Fatalf("fused plan missing the per-group count leaf: %s", s)
	}
	s, err = db.Explain(`
		MATCH (p:Person)-[:KNOWS]->(f:Person)-[:WROTE]->(post:Post) WHERE id(p) = 1
		RETURN COUNT(*) AS n`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, " -> Expand -> Aggregate") {
		t.Fatalf("fused plan does not count the posts through a plain expand: %s", s)
	}
	s, err = db.Explain(`
		MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE id(p) = 1
		RETURN f.name, f.age ORDER BY f.age DESC LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "OrderBy(late f.name)") {
		t.Fatalf("fused plan does not gather f.name after the cut: %s", s)
	}
}

func TestStats(t *testing.T) {
	db := socialDB(t, ges.Fused)
	v, e, b := db.Stats()
	if v != 10 || e != 10 || b <= 0 {
		t.Fatalf("stats = %d %d %d", v, e, b)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := socialDB(t, ges.Fused)
	dir := t.TempDir()
	path := dir + "/snap.ges"
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	db2, err := ges.LoadFile(path, ges.Fused)
	if err != nil {
		t.Fatal(err)
	}
	q := `MATCH (p:Person)-[:KNOWS]->(f)-[:WROTE]->(post)
	      WHERE id(p) = 1
	      RETURN f.name, post.score ORDER BY post.score DESC`
	a, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ after reload: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	// The reloaded database accepts further writes.
	if err := db2.AddVertex("Person", 77, ges.Props{"name": "new", "age": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ges.LoadFile(dir+"/missing.ges", ges.Fused); err == nil {
		t.Fatal("missing file must fail")
	}
}

// Writes after sealing are in Stats; Save writes the committed edges and
// refuses a database holding a vertex added after sealing.
func TestSaveAndStatsAfterSealedWrites(t *testing.T) {
	db := socialDB(t, ges.Fused)
	db.Seal()
	if err := db.AddEdge("KNOWS", "Person", 4, "Person", 1, nil); err != nil {
		t.Fatal(err)
	}
	if v, e, _ := db.Stats(); v != 10 || e != 11 {
		t.Fatalf("stats after a committed edge = %d %d", v, e)
	}
	path := t.TempDir() + "/snap.ges"
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	db2, err := ges.LoadFile(path, ges.Fused)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db2.Query(`MATCH (p:Person)-[:KNOWS]->(f) WHERE id(p) = 4 RETURN id(f) AS f`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(1) {
		t.Fatalf("reloaded committed edge: rows = %v", res.Rows)
	}

	if err := db.AddVertex("Person", 99, ges.Props{"name": "eve", "age": 19}); err != nil {
		t.Fatal(err)
	}
	if v, e, _ := db.Stats(); v != 11 || e != 11 {
		t.Fatalf("stats after a committed vertex = %d %d", v, e)
	}
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	db3, err := ges.LoadFile(path, ges.Fused)
	if err != nil {
		t.Fatal(err)
	}
	res, err = db3.Query(`MATCH (p:Person) WHERE id(p) = 99 RETURN p.name AS name, p.age AS age`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "eve" || res.Rows[0][1] != int64(19) {
		t.Fatalf("reloaded committed vertex: rows = %v", res.Rows)
	}
}

// TestVarLengthCountFactorized counts a var-length pattern under GES_f.
func TestVarLengthCountFactorized(t *testing.T) {
	db := socialDB(t, ges.Factorized)
	res, err := db.Query(`
		MATCH (p:Person)-[:KNOWS*1..2]->(f) WHERE id(p) = 1
		RETURN COUNT(*) AS n`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 3 {
		t.Fatalf("friends within 2 hops = %v", res.Rows[0][0])
	}
}
