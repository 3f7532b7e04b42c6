// Package ges is a high-performance embedded graph database with a
// factorized query executor — a from-scratch reproduction of Huawei's Graph
// Engine Service (GES, SIGMOD-Companion '25).
//
// GES stores label property graphs in compact adjacency arrays and executes
// Cypher queries over a factorized intermediate representation (f-Blocks
// arranged in f-Trees), which keeps multi-hop traversal intermediates
// exponentially smaller than classical flat tuple tables. Operator fusion
// (vertex-expand, filter-pushdown, aggregate-project-top) removes the
// de-factoring cost of blocking operators. Concurrency control is MV2PL:
// writers declare their write sets and lock vertices two-phase; readers run
// on immutable snapshots and never block.
//
// Quick start:
//
//	db := ges.Open(ges.Fused)
//	db.DefineVertexType("Person", ges.Prop{Name: "name", Type: ges.String})
//	db.DefineEdgeType("KNOWS")
//	db.AddVertex("Person", 1, ges.Props{"name": "ada"})
//	db.AddVertex("Person", 2, ges.Props{"name": "bob"})
//	db.AddEdge("KNOWS", "Person", 1, "Person", 2, nil)
//	res, err := db.Query(`MATCH (p:Person)-[:KNOWS]->(f) WHERE id(p) = 1
//	                      RETURN f.name`)
package ges

import (
	"fmt"
	"io"
	"os"
	"sync"

	"ges/internal/catalog"
	"ges/internal/core"
	"ges/internal/cypher"
	"ges/internal/exec"
	"ges/internal/storage"
	"ges/internal/txn"
	"ges/internal/vector"
)

// Mode selects the execution engine variant.
type Mode int

// Engine variants (the paper's ablation lineup, §6.1). Fused is the
// production configuration.
const (
	// Flat executes every operator over fully materialized tuple blocks —
	// the classical baseline.
	Flat Mode = iota
	// Factorized executes natively over the factorized representation.
	Factorized
	// Fused adds the operator-fusion rewrites to Factorized.
	Fused
)

func (m Mode) internal() exec.Mode {
	switch m {
	case Flat:
		return exec.ModeFlat
	case Factorized:
		return exec.ModeFactorized
	default:
		return exec.ModeFused
	}
}

// Type is a property value type.
type Type int

// Property types.
const (
	Int64 Type = iota
	Float64
	String
	Bool
	Date // days since the Unix epoch
)

func (t Type) kind() vector.Kind {
	switch t {
	case Int64:
		return vector.KindInt64
	case Float64:
		return vector.KindFloat64
	case String:
		return vector.KindString
	case Bool:
		return vector.KindBool
	default:
		return vector.KindDate
	}
}

// Prop declares one property of a vertex or edge type.
type Prop struct {
	Name string
	Type Type
}

// Props carries property values by name.
type Props map[string]any

// DB is an embedded GES instance. Schema definition and bulk loading run
// single-goroutine; after the first query (or explicit Seal) the base graph
// freezes and all further writes flow through MV2PL transactions, so reads
// and writes may proceed concurrently from any number of goroutines.
type DB struct {
	cat   *catalog.Catalog
	graph *storage.Graph
	cache *cypher.Cache

	mu       sync.Mutex
	mode     exec.Mode
	parallel int
	mgr      *txn.Manager // nil until the seal
}

// Open creates an empty database using the given engine variant.
func Open(mode Mode) *DB {
	cat := catalog.New()
	g := storage.NewGraph(cat)
	return &DB{cat: cat, graph: g, cache: cypher.NewCache(g), mode: mode.internal()}
}

// DefineVertexType registers a vertex label and its property schema.
func (db *DB) DefineVertexType(name string, props ...Prop) error {
	defs := make([]catalog.PropDef, len(props))
	for i, p := range props {
		defs[i] = catalog.PropDef{Name: p.Name, Kind: p.Type.kind()}
	}
	_, err := db.cat.AddLabel(name, defs...)
	return err
}

// DefineEdgeType registers an edge type and its (edge-)property schema.
func (db *DB) DefineEdgeType(name string, props ...Prop) error {
	defs := make([]catalog.PropDef, len(props))
	for i, p := range props {
		defs[i] = catalog.PropDef{Name: p.Name, Kind: p.Type.kind()}
	}
	_, err := db.cat.AddEdgeType(name, defs...)
	return err
}

// propRow orders a Props map per the schema.
func propRow(defs []catalog.PropDef, props Props) ([]vector.Value, error) {
	row := make([]vector.Value, len(defs))
	for i, d := range defs {
		v, ok := props[d.Name]
		if !ok {
			row[i] = vector.Value{Kind: d.Kind}
			continue
		}
		val, err := toValue(v, d.Kind)
		if err != nil {
			return nil, fmt.Errorf("ges: property %q: %w", d.Name, err)
		}
		row[i] = val
	}
	for name := range props {
		found := false
		for _, d := range defs {
			if d.Name == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("ges: property %q is not in the schema", name)
		}
	}
	return row, nil
}

func toValue(v any, k vector.Kind) (vector.Value, error) {
	switch x := v.(type) {
	case int:
		return vector.Value{Kind: k, I: int64(x)}, nil
	case int64:
		return vector.Value{Kind: k, I: x}, nil
	case float64:
		if k == vector.KindFloat64 {
			return vector.Float64(x), nil
		}
		return vector.Value{Kind: k, I: int64(x)}, nil
	case string:
		if k != vector.KindString {
			return vector.Value{}, fmt.Errorf("string given for %s column", k)
		}
		return vector.String_(x), nil
	case bool:
		return vector.Bool(x), nil
	default:
		return vector.Value{}, fmt.Errorf("unsupported value type %T", v)
	}
}

// AddVertex inserts a vertex with a caller-chosen unique (per label) id.
// Before sealing this writes the base graph directly; afterwards it runs as
// a transaction.
func (db *DB) AddVertex(label string, id int64, props Props) error {
	l, ok := db.cat.Label(label)
	if !ok {
		return fmt.Errorf("ges: unknown label %q", label)
	}
	row, err := propRow(db.cat.LabelProps(l), props)
	if err != nil {
		return err
	}
	mgr := db.manager()
	if mgr == nil {
		_, err := db.graph.AddVertex(l, id, row...)
		return err
	}
	tx := mgr.Begin(nil)
	if _, err := tx.AddVertex(l, id, row...); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// AddEdge inserts a directed edge between two vertices addressed by label
// and id.
func (db *DB) AddEdge(etype, srcLabel string, srcID int64, dstLabel string, dstID int64, props Props) error {
	et, ok := db.cat.EdgeType(etype)
	if !ok {
		return fmt.Errorf("ges: unknown edge type %q", etype)
	}
	row, err := propRow(db.cat.EdgeTypeProps(et), props)
	if err != nil {
		return err
	}
	sl, ok := db.cat.Label(srcLabel)
	if !ok {
		return fmt.Errorf("ges: unknown label %q", srcLabel)
	}
	dl, ok := db.cat.Label(dstLabel)
	if !ok {
		return fmt.Errorf("ges: unknown label %q", dstLabel)
	}
	mgr := db.manager()
	view := db.view()
	src, ok := view.VertexByExt(sl, srcID)
	if !ok {
		return fmt.Errorf("ges: no %s vertex with id %d", srcLabel, srcID)
	}
	dst, ok := view.VertexByExt(dl, dstID)
	if !ok {
		return fmt.Errorf("ges: no %s vertex with id %d", dstLabel, dstID)
	}
	if mgr == nil {
		return db.graph.AddEdge(et, src, dst, row...)
	}
	tx := mgr.Begin([]vector.VID{src, dst})
	if err := tx.AddEdge(et, src, dst, row...); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// Seal freezes the base graph: its adjacency is sealed into sorted CSR images
// (with the planner statistics derived from them), subsequent writes run as
// MV2PL transactions and queries read consistent snapshots. The first Query
// or Explain seals implicitly.
func (db *DB) Seal() { db.session() }

// session seals the database on first use and returns what one query reads:
// the transaction manager and the engine mode and parallelism, read once
// under db.mu so SetMode and SetParallelism apply from the next call on.
func (db *DB) session() (*txn.Manager, exec.Mode, int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.mgr == nil {
		db.graph.SealCSR()
		db.mgr = txn.NewManager(db.graph)
	}
	return db.mgr, db.mode, db.parallel
}

// manager returns the transaction manager, nil before the seal.
func (db *DB) manager() *txn.Manager {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.mgr
}

// view returns the view writes resolve vertices in: the graph before sealing,
// the latest snapshot afterwards.
func (db *DB) view() storage.View {
	if mgr := db.manager(); mgr != nil {
		return mgr.Snapshot()
	}
	return db.graph
}

// Result is a query result table.
type Result struct {
	Columns []string
	Rows    [][]any
	// Stats carries execution metadata.
	Stats struct {
		PeakIntermediateBytes int
		DurationNanos         int64
	}
}

// Query prepares a Cypher query through the plan cache — cost-planned from
// the statistics the seal publishes — and executes it on a snapshot pinned
// for the call, sealing the database on first use.
func (db *DB) Query(src string) (*Result, error) {
	mgr, mode, parallel := db.session()
	pr, err := db.cache.Prepare(src)
	if err != nil {
		return nil, err
	}
	snap := mgr.AcquireSnapshot()
	defer mgr.Release(snap)
	eng := exec.New(mode)
	eng.Parallel, eng.Params = parallel, pr.Params
	res, err := eng.Run(snap, pr.Plan)
	if err != nil {
		return nil, err
	}
	out := &Result{Columns: res.Block.Names}
	out.Rows = blockRows(res.Block)
	out.Stats.PeakIntermediateBytes = res.PeakMem
	out.Stats.DurationNanos = res.Duration.Nanoseconds()
	return out, nil
}

func blockRows(fb *core.FlatBlock) [][]any {
	rows := make([][]any, fb.NumRows())
	for i, row := range fb.Rows {
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
			default:
				r[j] = nil
			}
		}
		rows[i] = r
	}
	return rows
}

// Explain returns the physical plan Query would run for a query — prepared
// the same way, so cost-planned and, in Fused mode, fused — as a string,
// without executing it. Like Query, it seals the database on first use.
func (db *DB) Explain(src string) (string, error) {
	_, mode, _ := db.session()
	pr, err := db.cache.Prepare(src)
	if err != nil {
		return "", err
	}
	return exec.Physical(mode, pr.Plan, pr.Params).String(), nil
}

// SetMode switches the engine variant for subsequent queries (queries in
// flight keep the variant they started with).
func (db *DB) SetMode(mode Mode) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.mode = mode.internal()
}

// SetParallelism sets the intra-query parallelism degree: expansion
// operators over large intermediate blocks shard their work across this
// many goroutines. Values <= 1 (the default) run sequentially. Results are
// identical either way.
func (db *DB) SetParallelism(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.parallel = n
}

// Stats reports database-level gauges: the vertices and directed edges the
// latest committed version holds — committed writes included — and the
// approximate resident size of the graph storage.
func (db *DB) Stats() (vertices, edges, bytes int) {
	return db.view().NumVertices(), db.graph.NumEdges(), db.graph.MemBytes()
}

// Save writes a snapshot of the database (catalog + graph, every committed
// vertex and edge included) to w. Like the first query, it seals the database
// first, so a write after a save is a transaction. The database should be
// quiesced.
func (db *DB) Save(w io.Writer) error {
	db.Seal()
	return db.graph.Save(w)
}

// SaveFile writes a snapshot to a file.
func (db *DB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load opens a database from a snapshot produced by Save.
func Load(r io.Reader, mode Mode) (*DB, error) {
	g, cat, err := storage.Load(r)
	if err != nil {
		return nil, err
	}
	return &DB{cat: cat, graph: g, cache: cypher.NewCache(g), mode: mode.internal()}, nil
}

// LoadFile opens a database from a snapshot file.
func LoadFile(path string, mode Mode) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, mode)
}
