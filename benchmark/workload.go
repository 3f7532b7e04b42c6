package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"ges/internal/ldbc"
	"ges/internal/ldbc/queries"
	"ges/internal/service"
	"ges/internal/vector"
)

// class is the request class a latency sample is filed under.
type class uint8

const (
	classIC class = iota
	classIS
	classIU
	classHit  // /query served from a cached skeleton, thin result
	classMiss // /query with a never-seen skeleton: has to compile
	classFat  // /query fat 2-hop projection: de-factor + encode bound
	numClasses
)

func (c class) isRead() bool { return c != classIU }

// request is one generated operation: everything the server will see.
type request struct {
	path  string // "/ldbc" or "/query"
	body  []byte
	class class
	name  string // LDBC query name or Cypher template name
	// params are kept for acknowledged-write read-back (LDBC only).
	params queries.Params
}

// stream yields the request sequence of one client. The sequence is a pure
// function of the dataset, the workload and the seed it was built from.
type stream interface {
	next() request
	// blockOps is the length of one block of the sequence: consecutive
	// blocks hold the same request kinds in the same numbers.
	blockOps() int
}

// workload describes one of the four stable benchmark workloads.
type workload struct {
	name string
	// readerMix is what the closed-loop client draws from by mix frequency;
	// nil means the ad-hoc Cypher templates on /query.
	readerMix []*queries.Query
	// writerMix, when set, is what the open-loop writer issues at writeRate
	// requests per second.
	writerMix []*queries.Query
	writeRate float64
	// warmOps is the warm-up length: about 5 % of what the measured phase
	// completes.
	warmOps int
	// preloadWrites updates are committed before the warm-up, so that the
	// measured phase reads over overlays that are already there and whose
	// number changes little while it lasts.
	preloadWrites int
}

var workloads = []workload{
	{name: "ldbc_mix", readerMix: queries.All(), warmOps: 400},
	{name: "is_point", readerMix: queries.OfKind(queries.IS), warmOps: 10000},
	{name: "cypher_adhoc", warmOps: 1500},
	{
		name:          "read_under_write",
		readerMix:     append(queries.OfKind(queries.IC), queries.OfKind(queries.IS)...),
		writerMix:     queries.OfKind(queries.IU),
		writeRate:     writerRate,
		warmOps:       400,
		preloadWrites: 8000,
	},
}

func (w workload) reader(ds *ldbc.Dataset, seed int64) stream {
	if w.readerMix == nil {
		return newCypherStream(ds, seed)
	}
	return newLDBCStream(ds, w.readerMix, seed)
}

func (w workload) writer(ds *ldbc.Dataset, seed int64) stream {
	return newLDBCStream(ds, w.writerMix, seed)
}

// writes says whether the workload mutates the graph, in which case the
// commit-version and read-back checks apply once it has stopped.
func (w workload) writes() bool {
	for _, mix := range [][]*queries.Query{w.readerMix, w.writerMix} {
		for _, q := range mix {
			if q.Kind == queries.IU {
				return true
			}
		}
	}
	return false
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Seed streams. Every client of a run draws from its own stream so the
// sequences never overlap; warm-up uses streams disjoint from the measured
// ones.
const (
	streamReader = iota
	streamWriter
	streamWarmReader
	streamWarmWriter
	streamOracle
	streamReadback
	streamProbe
	numStreams
)

func streamSeed(seed int64, id int) int64 { return seed*numStreams + int64(id) }

// setupSeed seeds everything a server sees before timing starts — the oracle
// check's draws and the warm-up — whatever --seed is. Pools, arenas and the
// plan cache then start every run from the same history, and only the
// measured sequence differs between seeds. It is negative so that its
// streams cannot coincide with those of a (non-negative) --seed.
const setupSeed = -1

// deck deals request kinds in proportion to their counts. Within one pass
// through the deck the cards of a kind are spread evenly, at a random phase:
// card j of a kind with n cards sits at position (j+u)/n of the deck, u drawn
// once per kind and pass. The paper's mix is kept exactly, and any stretch
// of consecutive requests holds each kind in proportion, give or take one
// card — whatever the seed. Equal stretches ("blocks") therefore differ only
// in order and in parameters, and can be compared with one another.
type deck struct {
	counts []int
	cards  []int
	pos    []float64
	at     int
	rng    *rand.Rand
}

func newDeck(counts []int, rng *rand.Rand) *deck {
	n := 0
	for _, c := range counts {
		n += c
	}
	return &deck{counts: counts, cards: make([]int, n), pos: make([]float64, n), at: n, rng: rng}
}

func (d *deck) deal() int {
	if d.at == len(d.cards) {
		i := 0
		for kind, n := range d.counts {
			u := d.rng.Float64()
			for j := 0; j < n; j++ {
				d.cards[i], d.pos[i] = kind, (float64(j)+u)/float64(n)
				i++
			}
		}
		sort.Sort(d)
		d.at = 0
	}
	d.at++
	return d.cards[d.at-1]
}

func (d *deck) Len() int           { return len(d.cards) }
func (d *deck) Less(i, j int) bool { return d.pos[i] < d.pos[j] }
func (d *deck) Swap(i, j int) {
	d.cards[i], d.cards[j] = d.cards[j], d.cards[i]
	d.pos[i], d.pos[j] = d.pos[j], d.pos[i]
}

// blockOps is the block length for a deck: the deck cut into pieces of
// about targetBlock operations.
func (d *deck) blockOps() int {
	pieces := max(1, len(d.cards)/targetBlock)
	return (len(d.cards) + pieces - 1) / pieces
}

// targetBlock is long enough for every kind of the mix to have its share of
// a block, give or take one card, and short enough that a 10 s phase of the
// slowest workload still has several blocks to take a median over.
const targetBlock = 300

// ldbcStream deals LDBC queries by their mix frequency (queries.Query.Freq,
// the weights driver.NewMix draws with) and their parameters from the
// dataset's curated pools, and renders each as a POST /ldbc body with
// explicit params — the server never falls back to its own time-seeded draw.
type ldbcStream struct {
	ds   *ldbc.Dataset
	qs   []*queries.Query
	deck *deck
	pg   *ldbc.ParamGen
}

func newLDBCStream(ds *ldbc.Dataset, qs []*queries.Query, seed int64) *ldbcStream {
	counts := make([]int, len(qs))
	for i, q := range qs {
		counts[i] = q.Freq
	}
	return &ldbcStream{
		ds:   ds,
		qs:   qs,
		deck: newDeck(counts, rand.New(rand.NewSource(seed))),
		pg:   ds.NewParamGen(seed ^ 0x5eed),
	}
}

func (s *ldbcStream) next() request {
	q := s.qs[s.deck.deal()]
	return ldbcRequest(q, q.GenParams(s.ds, s.pg))
}

func (s *ldbcStream) blockOps() int { return s.deck.blockOps() }

func ldbcRequest(q *queries.Query, p queries.Params) request {
	raw := make(map[string]any, len(p))
	for k, v := range p {
		if v.Kind == vector.KindString {
			raw[k] = v.S
		} else {
			raw[k] = v.I
		}
	}
	body, err := json.Marshal(service.LDBCRequest{Name: q.Name, Params: raw})
	if err != nil {
		panic(err) // a map of strings and int64s always marshals
	}
	c := classIC
	switch q.Kind {
	case queries.IS:
		c = classIS
	case queries.IU:
		c = classIU
	}
	return request{path: "/ldbc", body: body, class: c, name: q.Name, params: p}
}

// cypherTemplate is one ad-hoc query shape; arg draws the literal that
// varies per request.
type cypherTemplate struct {
	name string
	text string // one %v verb
	arg  func(ds *ldbc.Dataset, pg *ldbc.ParamGen) any
	fat  bool
}

func personArg(_ *ldbc.Dataset, pg *ldbc.ParamGen) any { return pg.PersonExt() }

// The fixed ad-hoc template set (seek_1hop must stay first and end in
// "LIMIT 20": the miss cards rewrite that limit). Each crosses normalize → plan cache →
// (parse/bind/cost → LowerWCOJ) → fuse → operators → de-factor → encode, and
// each leans on a different part of it.
var cypherTemplates = []cypherTemplate{
	{name: "seek_1hop", arg: personArg,
		text: `MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE id(p) = %v RETURN id(f) AS friend, f.firstName AS firstName, f.lastName AS lastName LIMIT 20`},
	{name: "fat_2hop", arg: personArg, fat: true,
		text: `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(g:Person) WHERE id(p) = %v RETURN id(f) AS f, id(g) AS g, g.firstName AS firstName, g.lastName AS lastName, g.locationIP AS ip, g.browserUsed AS browser LIMIT 600`},
	{name: "varlen_count", arg: personArg,
		text: `MATCH (p:Person)-[:KNOWS*1..2]->(g:Person) WHERE id(p) = %v RETURN COUNT(*) AS n`},
	{name: "triangle", arg: personArg,
		text: `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:KNOWS]->(a) WHERE id(a) = %v RETURN COUNT(*) AS n`},
	{name: "scan_filter_top",
		arg:  func(_ *ldbc.Dataset, pg *ldbc.ParamGen) any { return "'" + pg.RandomBrowser() + "'" },
		text: `MATCH (p:Person) WHERE p.browserUsed = %v RETURN id(p) AS person, p.creationDate AS created ORDER BY created DESC, person LIMIT 10`},
	{name: "reverse_2hop_agg", arg: personArg,
		text: `MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WHERE id(c) = %v RETURN COUNT(*) AS n, SUM(id(a)) AS s`},
	{name: "creator_projection", arg: personArg,
		text: `MATCH (m:Post)-[:HAS_CREATOR]->(p:Person) WHERE id(p) = %v RETURN id(m) AS post, m.content AS content, m.creationDate AS created`},
	{name: "lookup", arg: personArg,
		text: `MATCH (p:Person) WHERE id(p) = %v RETURN p.firstName AS firstName, p.lastName AS lastName, p.gender AS gender, p.birthday AS birthday`},
}

// Ad-hoc deck: cardsPerTemplate cards of each template plus missCards cards
// that carry a never-seen skeleton — one request in eight.
const (
	cardsPerTemplate = 35
	missCards        = 40
)

// cypherStream deals the templates in equal shares. A miss card is the
// seek_1hop template with a LIMIT no earlier request used: LIMIT counts are
// not normalised into parameters, so the skeleton is new and the plan cache
// must miss. The limits exceed any person's degree, so the rows are those of
// the unlimited query.
type cypherStream struct {
	ds     *ldbc.Dataset
	deck   *deck
	pg     *ldbc.ParamGen
	misses int
	// limitBase separates the LIMIT values of different streams on one
	// server (warm-up, oracle, measured), so a miss is a miss.
	limitBase int
}

func newCypherStream(ds *ldbc.Dataset, seed int64) *cypherStream {
	counts := make([]int, len(cypherTemplates)+1)
	for i := range cypherTemplates {
		counts[i] = cardsPerTemplate
	}
	counts[len(cypherTemplates)] = missCards
	return &cypherStream{
		ds:        ds,
		deck:      newDeck(counts, rand.New(rand.NewSource(seed))),
		pg:        ds.NewParamGen(seed ^ 0x5eed),
		limitBase: 1_000_000 * (1 + int((seed%numStreams+numStreams)%numStreams)),
	}
}

func (s *cypherStream) next() request {
	card := s.deck.deal()
	if card == len(cypherTemplates) {
		s.misses++
		t := cypherTemplates[0]
		text := fmt.Sprintf(strings.TrimSuffix(t.text, "LIMIT 20")+"LIMIT %d", t.arg(s.ds, s.pg), s.limitBase+s.misses)
		return cypherRequest(t.name, text, classMiss)
	}
	t := cypherTemplates[card]
	c := classHit
	if t.fat {
		c = classFat
	}
	return cypherRequest(t.name, fmt.Sprintf(t.text, t.arg(s.ds, s.pg)), c)
}

func (s *cypherStream) blockOps() int { return s.deck.blockOps() }

func cypherRequest(name, text string, c class) request {
	body, err := json.Marshal(service.QueryRequest{Query: text})
	if err != nil {
		panic(err) // a string always marshals
	}
	return request{path: "/query", body: body, class: c, name: name}
}
