// Package testgraph builds a tiny, hand-checkable label property graph used
// by tests across packages: a miniature social network with persons, knows
// edges, posts, comments and likes, mirroring the shape (though not the
// scale) of the paper's LDBC workload.
package testgraph

import (
	"ges/internal/catalog"
	"ges/internal/storage"
	"ges/internal/testgraph/edgemodel"
	"ges/internal/vector"
)

// Schema bundles the IDs tests need.
type Schema struct {
	Person, Post, Comment, Forum, Tag catalog.LabelID

	Knows, HasCreator, Likes, ReplyOf, ContainerOf, HasTag, HasMember catalog.EdgeTypeID

	// Person property IDs.
	PFirstName, PLastName, PCreation catalog.PropID
	// Message (post/comment share layout) property IDs.
	MContent, MLength, MCreation catalog.PropID
	// Forum property IDs.
	FTitle catalog.PropID
	// Tag property IDs.
	TName catalog.PropID
}

// NewSchema registers the test schema on a fresh catalog.
func NewSchema(cat *catalog.Catalog) *Schema {
	s := &Schema{}
	s.Person = catalog.Must(cat.AddLabel("Person",
		catalog.PropDef{Name: "firstName", Kind: vector.KindString},
		catalog.PropDef{Name: "lastName", Kind: vector.KindString},
		catalog.PropDef{Name: "creationDate", Kind: vector.KindDate},
	))
	s.Post = catalog.Must(cat.AddLabel("Post",
		catalog.PropDef{Name: "content", Kind: vector.KindString},
		catalog.PropDef{Name: "length", Kind: vector.KindInt64},
		catalog.PropDef{Name: "creationDate", Kind: vector.KindDate},
	))
	s.Comment = catalog.Must(cat.AddLabel("Comment",
		catalog.PropDef{Name: "content", Kind: vector.KindString},
		catalog.PropDef{Name: "length", Kind: vector.KindInt64},
		catalog.PropDef{Name: "creationDate", Kind: vector.KindDate},
	))
	s.Forum = catalog.Must(cat.AddLabel("Forum",
		catalog.PropDef{Name: "title", Kind: vector.KindString},
	))
	s.Tag = catalog.Must(cat.AddLabel("Tag",
		catalog.PropDef{Name: "name", Kind: vector.KindString},
	))
	s.PFirstName, s.PLastName, s.PCreation = 0, 1, 2
	s.MContent, s.MLength, s.MCreation = 0, 1, 2
	s.FTitle, s.TName = 0, 0

	s.Knows = catalog.Must(cat.AddEdgeType("KNOWS",
		catalog.PropDef{Name: "creationDate", Kind: vector.KindDate}))
	s.HasCreator = catalog.Must(cat.AddEdgeType("HAS_CREATOR"))
	s.Likes = catalog.Must(cat.AddEdgeType("LIKES",
		catalog.PropDef{Name: "creationDate", Kind: vector.KindDate}))
	s.ReplyOf = catalog.Must(cat.AddEdgeType("REPLY_OF"))
	s.ContainerOf = catalog.Must(cat.AddEdgeType("CONTAINER_OF"))
	s.HasTag = catalog.Must(cat.AddEdgeType("HAS_TAG"))
	s.HasMember = catalog.Must(cat.AddEdgeType("HAS_MEMBER",
		catalog.PropDef{Name: "joinDate", Kind: vector.KindDate}))
	return s
}

// Fixture is the built test graph plus handles to its content.
type Fixture struct {
	Cat    *catalog.Catalog
	Schema *Schema
	Graph  *storage.Graph
	// Model is the edge list the graph was given (CheckBatch's reference);
	// a test that commits edges records them with Record.
	Model edgemodel.Model

	Persons  []vector.VID // ext IDs 100..109
	Posts    []vector.VID // ext IDs 200..206
	Comments []vector.VID // ext IDs 300..304
}

// New builds the fixture:
//
//	persons p0..p9 (ext 100..109), knows edges forming a known topology:
//	  p0-p1, p0-p2, p0-p3, p1-p4, p2-p4, p2-p5, p3-p6, p4-p7, p5-p8, p6-p9
//	(knows is symmetric: both directions inserted)
//	posts  m0..m6 (ext 200..206) created by p1,p2,p2,p4,p5,p6,p9
//	comments c0..c4 (ext 300..304) created by p4,p5,p1,p7,p8; c_i replies to
//	post m_{i%3}
//	likes: p0 likes m0,m1; p1 likes m2; p7 likes m0
func New() *Fixture {
	cat := catalog.New()
	s := NewSchema(cat)
	g := storage.NewGraph(cat)
	f := &Fixture{Cat: cat, Schema: s, Graph: g}

	firstNames := []string{"Ada", "Bob", "Cyn", "Dan", "Eve", "Fay", "Gus", "Hal", "Ivy", "Joe"}
	for i := 0; i < 10; i++ {
		v, err := g.AddVertex(s.Person, int64(100+i),
			vector.String_(firstNames[i]),
			vector.String_("Smith"),
			vector.Date(int64(19000+i)),
		)
		if err != nil {
			panic(err)
		}
		f.Persons = append(f.Persons, v)
	}
	add := func(et catalog.EdgeTypeID, src, dst vector.VID, props ...vector.Value) {
		must(g.AddEdge(et, src, dst, props...))
		f.Record(0, et, src, dst, props...)
	}
	knows := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {2, 5}, {3, 6}, {4, 7}, {5, 8}, {6, 9}}
	for i, e := range knows {
		d := vector.Date(int64(19500 + i))
		add(s.Knows, f.Persons[e[0]], f.Persons[e[1]], d)
		add(s.Knows, f.Persons[e[1]], f.Persons[e[0]], d)
	}
	postCreators := []int{1, 2, 2, 4, 5, 6, 9}
	for i, c := range postCreators {
		v, err := g.AddVertex(s.Post, int64(200+i),
			vector.String_("post-content"),
			vector.Int64(int64(100+10*i)), // lengths 100,110,...,160
			vector.Date(int64(19800+i)),
		)
		if err != nil {
			panic(err)
		}
		f.Posts = append(f.Posts, v)
		add(s.HasCreator, v, f.Persons[c])
	}
	commentCreators := []int{4, 5, 1, 7, 8}
	for i, c := range commentCreators {
		v, err := g.AddVertex(s.Comment, int64(300+i),
			vector.String_("comment-content"),
			vector.Int64(int64(20+5*i)), // lengths 20,25,30,35,40
			vector.Date(int64(19900+i)),
		)
		if err != nil {
			panic(err)
		}
		f.Comments = append(f.Comments, v)
		add(s.HasCreator, v, f.Persons[c])
		add(s.ReplyOf, v, f.Posts[i%3])
	}
	likes := [][2]int{{0, 0}, {0, 1}, {1, 2}, {7, 0}}
	for i, e := range likes {
		add(s.Likes, f.Persons[e[0]], f.Posts[e[1]], vector.Date(int64(19950+i)))
	}
	return f
}

// Record adds to the fixture's model an edge its graph accepted, written at
// version ver (0 for the bulk load).
func (f *Fixture) Record(ver uint64, et catalog.EdgeTypeID, src, dst vector.VID, props ...vector.Value) {
	f.Model.Add(edgemodel.Edge{Et: et, Src: src, Dst: dst, SrcLabel: f.Graph.LabelOf(src), DstLabel: f.Graph.LabelOf(dst), Ver: ver, Props: props})
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
