package ldbc

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"ges/internal/catalog"
	"ges/internal/storage"
	"ges/internal/vector"
)

// Config parameterizes generation. SF is the simulated scale factor: the
// person count (and everything downstream) scales linearly with it.
type Config struct {
	SF   float64
	Seed int64
}

// The generator's SNB-shaped degrees and fan-outs.
const (
	avgKnowsDegree  = 14
	postsPerForum   = 10 // mean
	commentsPerPost = 2  // mean of geometric
	likesPerMessage = 1  // mean of geometric
	tagsPerPerson   = 5
	membersPerForum = 12 // mean, zipf-skewed
)

// Persons returns the person cardinality for the scale factor (≈1.1k at
// simSF=1, mirroring SNB's 11k at SF1 divided by ten).
func (c Config) Persons() int {
	n := int(1100 * c.SF)
	if n < 30 {
		n = 30
	}
	return n
}

// Dataset is a generated SNB-like social network plus the handles and
// parameter pools the workload needs.
type Dataset struct {
	Config Config
	H      *Handles
	Graph  *storage.Graph

	Persons  []vector.VID
	Posts    []vector.VID
	Comments []vector.VID
	Forums   []vector.VID

	TagNames     []string
	CountryNames []string

	places *placeIDs
	tags   []vector.VID

	// Monotonic external-ID wells for update queries.
	nextPersonExt  atomic.Int64
	nextForumExt   atomic.Int64
	nextPostExt    atomic.Int64
	nextCommentExt atomic.Int64
}

var (
	firstNames = []string{"Jan", "Jun", "Ali", "Ana", "Bob", "Carmen", "Chen", "Deepa", "Emil",
		"Eva", "Finn", "Gita", "Hans", "Ines", "Ivan", "Joao", "Kira", "Lars", "Lin", "Mara",
		"Nina", "Omar", "Pia", "Qing", "Rahul", "Sara", "Tim", "Uma", "Vlad", "Wei",
		"Xin", "Yara", "Zoe", "Ada", "Bill", "Cleo", "Dora", "Egon", "Faye", "Gus"}
	lastNames = []string{"Smith", "Garcia", "Mueller", "Chen", "Kumar", "Silva", "Rossi",
		"Novak", "Tanaka", "Kim", "Olsen", "Dubois", "Khan", "Lopez", "Popov", "Sato",
		"Yang", "Costa", "Berg", "Fischer"}
	continentNames = []string{"Asia", "Europe", "Africa", "Americas", "Oceania", "Antarctica"}
	countrySeeds   = []string{"India", "China", "Germany", "France", "Brazil", "Italy", "Japan",
		"Norway", "Egypt", "Kenya", "Canada", "Mexico", "Peru", "Chile", "Spain", "Poland",
		"Vietnam", "Korea", "Australia", "Fiji", "Ghana", "Austria", "Denmark", "Portugal"}
	browsers  = []string{"Chrome", "Firefox", "Safari", "Edge", "Opera"}
	languages = []string{"en", "de", "fr", "es", "zh", "pt", "hi"}
	tagThemes = []string{"rock", "jazz", "football", "chess", "physics", "poetry", "cinema",
		"history", "cooking", "travel", "biology", "painting"}
)

// Generate builds the dataset deterministically from the config.
func Generate(cfg Config) (*Dataset, error) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x6765736c64626331)) // "gesldbc1"
	h := NewHandles()
	g := storage.NewGraph(h.Cat)
	ds := &Dataset{Config: cfg, H: h, Graph: g}

	if err := ds.genPlaces(rng); err != nil {
		return nil, err
	}
	if err := ds.genTags(rng); err != nil {
		return nil, err
	}
	if err := ds.genPersons(rng); err != nil {
		return nil, err
	}
	lists := &genLists{}
	if err := ds.genKnows(rng, lists); err != nil {
		return nil, err
	}
	if err := ds.genForums(rng, lists); err != nil {
		return nil, err
	}
	if err := ds.genLikes(rng, lists); err != nil {
		return nil, err
	}

	// End of the bulk phase: seal every family's edge log into its sorted
	// CSR snapshot so queries run on the read-optimized layout.
	ds.seal()
	// Post-seal edge mutations land in delta overlays; each background
	// family reseal runs on a goroutine of its own, off the mutator's
	// critical path. The family's reseal claim bounds them to one per family.
	g.SetResealSubmit(func(task func()) bool { go task(); return true })

	// The wells hold the current maximum; NewXExt pre-increments.
	ds.nextPersonExt.Store(int64(len(ds.Persons)))
	ds.nextForumExt.Store(int64(len(ds.Forums)))
	ds.nextPostExt.Store(int64(len(ds.Posts)))
	ds.nextCommentExt.Store(int64(len(ds.Comments)))
	return ds, nil
}

// seal ends the bulk phase. The first seal lays the vertices out anew
// (storage's VID layout: labels contiguous, messages by creation date), so
// every VID the dataset keeps is re-resolved through its external id.
func (ds *Dataset) seal() {
	g, h, pl := ds.Graph, ds.H, ds.places
	kept := []struct {
		label catalog.LabelID
		vids  []vector.VID
	}{
		{h.Person, ds.Persons}, {h.Post, ds.Posts}, {h.Comment, ds.Comments}, {h.Forum, ds.Forums},
		{h.Tag, ds.tags}, {h.City, pl.cities}, {h.Country, pl.countries},
		{h.University, pl.universities}, {h.Company, pl.companies},
	}
	exts := make([][]int64, len(kept))
	for i, k := range kept {
		exts[i] = make([]int64, len(k.vids))
		for j, v := range k.vids {
			exts[i][j] = g.ExtID(v)
		}
	}
	g.SealCSR()
	for i, k := range kept {
		for j, ext := range exts[i] {
			k.vids[j], _ = g.VertexByExt(k.label, ext)
		}
	}
}

// genLists is what generation remembers of its own edges, so that it never
// reads the graph it is still loading: each person's KNOWS friends, indexed by
// position in Persons (persons take consecutive VIDs) and appended in AddEdge
// order, and the creator and creation date of every post and comment,
// aligned with Posts and Comments. It lives only inside Generate.
type genLists struct {
	friends                     [][]vector.VID
	postCreator, commentCreator []vector.VID
	postDate, commentDate       []int64
}

type placeIDs struct {
	cities       []vector.VID
	countries    []vector.VID
	universities []vector.VID
	companies    []vector.VID
}

func (ds *Dataset) genPlaces(rng *rand.Rand) error {
	h, g := ds.H, ds.Graph
	ds.places = &placeIDs{}
	continents := make([]vector.VID, len(continentNames))
	for i, n := range continentNames {
		v, err := g.AddVertex(h.Continent, int64(i+1), vector.String_(n))
		if err != nil {
			return err
		}
		continents[i] = v
	}
	for i, n := range countrySeeds {
		c, err := g.AddVertex(h.Country, int64(i+1), vector.String_(n))
		if err != nil {
			return err
		}
		ds.places.countries = append(ds.places.countries, c)
		ds.CountryNames = append(ds.CountryNames, n)
		if err := g.AddEdge(h.IsPartOf, c, continents[i%len(continents)]); err != nil {
			return err
		}
		for k := 0; k < 4; k++ {
			city, err := g.AddVertex(h.City, int64(i*4+k+1), vector.String_(fmt.Sprintf("%s-City%d", n, k)))
			if err != nil {
				return err
			}
			ds.places.cities = append(ds.places.cities, city)
			if err := g.AddEdge(h.IsPartOf, city, c); err != nil {
				return err
			}
		}
		for k := 0; k < 2; k++ {
			u, err := g.AddVertex(h.University, int64(i*2+k+1), vector.String_(fmt.Sprintf("%s-Uni%d", n, k)))
			if err != nil {
				return err
			}
			ds.places.universities = append(ds.places.universities, u)
			if err := g.AddEdge(h.IsLocatedIn, u, c); err != nil {
				return err
			}
		}
		for k := 0; k < 3; k++ {
			co, err := g.AddVertex(h.Company, int64(i*3+k+1), vector.String_(fmt.Sprintf("%s-Corp%d", n, k)))
			if err != nil {
				return err
			}
			ds.places.companies = append(ds.places.companies, co)
			if err := g.AddEdge(h.IsLocatedIn, co, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func (ds *Dataset) genTags(rng *rand.Rand) error {
	h, g := ds.H, ds.Graph
	classes := make([]vector.VID, len(tagThemes))
	for i, n := range tagThemes {
		v, err := g.AddVertex(h.TagClass, int64(i+1), vector.String_(n))
		if err != nil {
			return err
		}
		classes[i] = v
	}
	nTags := 50 + ds.Config.Persons()/4
	for i := 0; i < nTags; i++ {
		theme := tagThemes[i%len(tagThemes)]
		name := fmt.Sprintf("%s-%d", theme, i/len(tagThemes))
		v, err := g.AddVertex(h.Tag, int64(i+1), vector.String_(name))
		if err != nil {
			return err
		}
		ds.tags = append(ds.tags, v)
		ds.TagNames = append(ds.TagNames, name)
		if err := g.AddEdge(h.HasType, v, classes[i%len(classes)]); err != nil {
			return err
		}
	}
	return nil
}

// zipfIdx draws a zipf-skewed index in [0,n).
func zipfIdx(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	// Inverse-power sampling, exponent ~1.3.
	u := rng.Float64()
	i := int(float64(n) * (1 - u*u*u))
	if i >= n {
		i = n - 1
	}
	return i
}

func (ds *Dataset) genPersons(rng *rand.Rand) error {
	h, g := ds.H, ds.Graph
	n := ds.Config.Persons()
	for i := 0; i < n; i++ {
		gender := "male"
		if rng.Intn(2) == 0 {
			gender = "female"
		}
		city := ds.places.cities[rng.Intn(len(ds.places.cities))]
		v, err := g.AddVertex(h.Person, int64(i+1),
			vector.String_(firstNames[rng.Intn(len(firstNames))]),
			vector.String_(lastNames[rng.Intn(len(lastNames))]),
			vector.String_(gender),
			vector.Date(int64(rng.Intn(12000))), // birthday 1970..2002
			vector.Date(int64(DayStart+rng.Intn(DayEnd-DayStart))),
			vector.String_(fmt.Sprintf("77.%d.%d.%d", rng.Intn(256), rng.Intn(256), rng.Intn(256))),
			vector.String_(browsers[rng.Intn(len(browsers))]),
		)
		if err != nil {
			return err
		}
		ds.Persons = append(ds.Persons, v)
		if err := g.AddEdge(h.IsLocatedIn, v, city); err != nil {
			return err
		}
		// Interests.
		for k := 0; k < tagsPerPerson; k++ {
			tag := ds.tags[zipfIdx(rng, len(ds.tags))]
			_ = g.AddEdge(h.HasInterest, v, tag) //geslint:err-ok a repeated tag is a parallel edge, which IC10 counts once per edge; the generator retries nothing
		}
		// Education and employment.
		if rng.Intn(3) > 0 {
			u := ds.places.universities[rng.Intn(len(ds.places.universities))]
			if err := g.AddEdge(h.StudyAt, v, u, vector.Int64(int64(1990+rng.Intn(23)))); err != nil {
				return err
			}
		}
		for k := 0; k < rng.Intn(3); k++ {
			c := ds.places.companies[rng.Intn(len(ds.places.companies))]
			if err := g.AddEdge(h.WorkAt, v, c, vector.Int64(int64(1995+rng.Intn(18)))); err != nil {
				return err
			}
		}
	}
	return nil
}

func (ds *Dataset) genKnows(rng *rand.Rand, lists *genLists) error {
	h, g := ds.H, ds.Graph
	n := len(ds.Persons)
	lists.friends = make([][]vector.VID, n)
	type edge struct{ a, b int }
	seen := make(map[edge]bool)
	addKnows := func(a, b int) error {
		if a == b {
			return nil
		}
		if a > b {
			a, b = b, a
		}
		if seen[edge{a, b}] {
			return nil
		}
		seen[edge{a, b}] = true
		d := vector.Date(int64(DayStart + rng.Intn(DayEnd-DayStart)))
		if err := g.AddEdge(h.Knows, ds.Persons[a], ds.Persons[b], d); err != nil {
			return err
		}
		lists.friends[a] = append(lists.friends[a], ds.Persons[b])
		lists.friends[b] = append(lists.friends[b], ds.Persons[a])
		return g.AddEdge(h.Knows, ds.Persons[b], ds.Persons[a], d)
	}
	// Power-law degrees: a zipf-skew over targets plus locality bias gives
	// the community structure multi-hop queries feel.
	for i := 0; i < n; i++ {
		deg := 1 + zipfDegree(rng, avgKnowsDegree)
		for k := 0; k < deg; k++ {
			var j int
			if rng.Intn(3) > 0 {
				// Local link: nearby index (a proxy for community).
				off := 1 + rng.Intn(20)
				if rng.Intn(2) == 0 {
					off = -off
				}
				j = (i + off + n) % n
			} else {
				// Global link, biased to early (popular) persons.
				j = zipfIdx(rng, n)
			}
			if err := addKnows(i, j); err != nil {
				return err
			}
		}
	}
	return nil
}

// zipfDegree draws from a heavy-tailed degree distribution with roughly the
// requested mean.
func zipfDegree(rng *rand.Rand, mean int) int {
	// Pareto-ish: mean * u^-0.5 has infinite variance; clamp.
	u := rng.Float64()
	if u < 1e-6 {
		u = 1e-6
	}
	d := int(float64(mean) * 0.6 / (u + 0.08))
	if d > mean*20 {
		d = mean * 20
	}
	if d < 1 {
		d = 1
	}
	return d
}

func (ds *Dataset) genForums(rng *rand.Rand, lists *genLists) error {
	h, g := ds.H, ds.Graph
	nForums := len(ds.Persons)
	postExt, commentExt := int64(1), int64(1)
	for i := 0; i < nForums; i++ {
		modAt := rng.Intn(len(ds.Persons))
		mod := ds.Persons[modAt]
		forum, err := g.AddVertex(h.Forum, int64(i+1),
			vector.String_(fmt.Sprintf("Forum %d of %s", i+1, tagThemes[i%len(tagThemes)])),
			vector.Date(int64(DayStart+rng.Intn(365))),
		)
		if err != nil {
			return err
		}
		ds.Forums = append(ds.Forums, forum)
		if err := g.AddEdge(h.HasModerator, forum, mod); err != nil {
			return err
		}
		theme := ds.tags[zipfIdx(rng, len(ds.tags))]
		if err := g.AddEdge(h.HasTag, forum, theme); err != nil {
			return err
		}

		// Membership: moderator's friends plus zipf-skewed randoms.
		members := map[vector.VID]bool{mod: true}
		for _, f := range lists.friends[modAt] {
			if rng.Intn(2) == 0 {
				members[f] = true
			}
		}
		extra := zipfDegree(rng, membersPerForum/2)
		for k := 0; k < extra; k++ {
			members[ds.Persons[zipfIdx(rng, len(ds.Persons))]] = true
		}
		memberList := make([]vector.VID, 0, len(members))
		for m := range members {
			memberList = append(memberList, m)
		}
		// map order is random but the content is deterministic; sort for
		// reproducibility.
		sortVIDs(memberList)
		for _, m := range memberList {
			join := vector.Date(int64(DayStart + rng.Intn(DayEnd-DayStart)))
			if err := g.AddEdge(h.HasMember, forum, m, join); err != nil {
				return err
			}
		}

		// Posts by members; replies form trees under each post.
		nPosts := poisson(rng, postsPerForum)
		for p := 0; p < nPosts; p++ {
			author := memberList[rng.Intn(len(memberList))]
			created := int64(DayStart + rng.Intn(DayEnd-DayStart))
			length := 20 + zipfDegree(rng, 40)
			post, err := g.AddVertex(h.Post, postExt,
				vector.String_(fmt.Sprintf("post %d", postExt)),
				vector.Int64(int64(length)),
				vector.Date(created),
				vector.String_(browsers[rng.Intn(len(browsers))]),
				vector.String_("77.0.0.1"),
				vector.String_(languages[rng.Intn(len(languages))]),
			)
			if err != nil {
				return err
			}
			postExt++
			ds.Posts = append(ds.Posts, post)
			lists.postCreator = append(lists.postCreator, author)
			lists.postDate = append(lists.postDate, created)
			if err := g.AddEdge(h.HasCreator, post, author); err != nil {
				return err
			}
			if err := g.AddEdge(h.ContainerOf, forum, post); err != nil {
				return err
			}
			if err := g.AddEdge(h.HasTag, post, theme); err != nil {
				return err
			}
			if rng.Intn(2) == 0 {
				if err := g.AddEdge(h.HasTag, post, ds.tags[zipfIdx(rng, len(ds.tags))]); err != nil {
					return err
				}
			}
			country := ds.places.countries[rng.Intn(len(ds.places.countries))]
			if err := g.AddEdge(h.IsLocatedIn, post, country); err != nil {
				return err
			}

			// Reply tree.
			parents := []vector.VID{post}
			parentDates := []int64{created}
			nComments := poisson(rng, commentsPerPost)
			for cI := 0; cI < nComments; cI++ {
				pi := rng.Intn(len(parents))
				commAuthor := memberList[rng.Intn(len(memberList))]
				cDate := parentDates[pi] + int64(rng.Intn(30)+1)
				if cDate > DayEnd {
					cDate = DayEnd
				}
				comm, err := g.AddVertex(h.Comment, commentExt,
					vector.String_(fmt.Sprintf("reply %d", commentExt)),
					vector.Int64(int64(10+zipfDegree(rng, 20))),
					vector.Date(cDate),
					vector.String_(browsers[rng.Intn(len(browsers))]),
					vector.String_("77.0.0.2"),
				)
				if err != nil {
					return err
				}
				commentExt++
				ds.Comments = append(ds.Comments, comm)
				lists.commentCreator = append(lists.commentCreator, commAuthor)
				lists.commentDate = append(lists.commentDate, cDate)
				if err := g.AddEdge(h.HasCreator, comm, commAuthor); err != nil {
					return err
				}
				if err := g.AddEdge(h.ReplyOf, comm, parents[pi]); err != nil {
					return err
				}
				country := ds.places.countries[rng.Intn(len(ds.places.countries))]
				if err := g.AddEdge(h.IsLocatedIn, comm, country); err != nil {
					return err
				}
				parents = append(parents, comm)
				parentDates = append(parentDates, cDate)
			}
		}
	}
	return nil
}

func (ds *Dataset) genLikes(rng *rand.Rand, lists *genLists) error {
	h, g := ds.H, ds.Graph
	like := func(msg, creator vector.VID, when int64) error {
		// Likers: friends of the creator, falling back to random persons.
		n := poisson(rng, likesPerMessage)
		candidates := lists.friends[creator-ds.Persons[0]]
		seen := map[vector.VID]bool{}
		for k := 0; k < n; k++ {
			var liker vector.VID
			if len(candidates) > 0 && rng.Intn(4) > 0 {
				liker = candidates[rng.Intn(len(candidates))]
			} else {
				liker = ds.Persons[zipfIdx(rng, len(ds.Persons))]
			}
			if seen[liker] {
				continue
			}
			seen[liker] = true
			d := when + int64(rng.Intn(60)+1)
			if d > DayEnd {
				d = DayEnd
			}
			if err := g.AddEdge(h.Likes, liker, msg, vector.Date(d)); err != nil {
				return err
			}
		}
		return nil
	}
	for i, p := range ds.Posts {
		if err := like(p, lists.postCreator[i], lists.postDate[i]); err != nil {
			return err
		}
	}
	for i, c := range ds.Comments {
		if err := like(c, lists.commentCreator[i], lists.commentDate[i]); err != nil {
			return err
		}
	}
	return nil
}

// poisson draws a Poisson-distributed count (Knuth's method; means here are
// small).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := 1.0
	for i := 0; i < 700; i++ {
		l *= rng.Float64()
		if l < expNeg(mean) {
			return i
		}
	}
	return int(mean)
}

func expNeg(x float64) float64 { return math.Exp(-x) }

// sortVIDs orders a VID slice ascending (generation determinism).
func sortVIDs(v []vector.VID) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}
