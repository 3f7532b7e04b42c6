// Package ldbc provides the LDBC SNB Interactive substrate of the paper's
// evaluation (§2.2, §6): the social-network schema, a deterministic scaled-
// down data generator ("simulated scale factors"), dataset statistics
// (Table 1), and parameter curation for the query workload.
//
// Substitution note (see DESIGN.md): the official Hadoop-based Datagen and
// multi-hundred-gigabyte scale factors are replaced by an in-process
// generator that reproduces the *shape* of SNB data — power-law KNOWS
// degrees, forum/membership skew, message reply trees, tag and place
// hierarchies — at laptop scale. simSF=1 ≈ 1.1k persons (the paper's SF1 has
// 11k persons at ~4M vertices; simSF scales every cardinality down by ~10×
// on persons and proportionally elsewhere).
package ldbc

import (
	"ges/internal/catalog"
	"ges/internal/vector"
)

// Handles bundles every catalog ID of the SNB schema.
type Handles struct {
	Cat *catalog.Catalog

	// Labels.
	Person, Post, Comment, Forum, Tag, TagClass catalog.LabelID
	City, Country, Continent                    catalog.LabelID
	University, Company                         catalog.LabelID

	// Edge types.
	Knows, HasCreator, Likes, ReplyOf, ContainerOf catalog.EdgeTypeID
	HasMember, HasModerator, HasTag, HasInterest   catalog.EdgeTypeID
	IsLocatedIn, IsPartOf, HasType                 catalog.EdgeTypeID
	StudyAt, WorkAt                                catalog.EdgeTypeID

	// Person property IDs.
	PFirstName, PLastName, PGender, PBirthday, PCreation, PLocationIP, PBrowser catalog.PropID
	// Message (Post/Comment share a layout) property IDs.
	MContent, MLength, MCreation, MBrowser, MLocationIP catalog.PropID
	// Post-only extra property.
	PostLanguage catalog.PropID
	// Forum property IDs.
	FTitle, FCreation catalog.PropID
	// Name property (Tag, TagClass, places, organisations all use slot 0).
	NameProp catalog.PropID
}

// NewHandles registers the SNB schema on a fresh catalog.
func NewHandles() *Handles {
	cat := catalog.New()
	h := &Handles{Cat: cat}

	str := func(n string) catalog.PropDef { return catalog.PropDef{Name: n, Kind: vector.KindString} }
	date := func(n string) catalog.PropDef { return catalog.PropDef{Name: n, Kind: vector.KindDate} }
	i64 := func(n string) catalog.PropDef { return catalog.PropDef{Name: n, Kind: vector.KindInt64} }

	h.Person = catalog.Must(cat.AddLabel("Person",
		str("firstName"), str("lastName"), str("gender"),
		date("birthday"), date("creationDate"), str("locationIP"), str("browserUsed")))
	h.PFirstName, h.PLastName, h.PGender, h.PBirthday, h.PCreation, h.PLocationIP, h.PBrowser =
		0, 1, 2, 3, 4, 5, 6

	// Post and Comment share the first five property slots so that
	// Message-supertype queries project them uniformly.
	h.Post = catalog.Must(cat.AddLabel("Post",
		str("content"), i64("length"), date("creationDate"), str("browserUsed"), str("locationIP"),
		str("language")))
	h.Comment = catalog.Must(cat.AddLabel("Comment",
		str("content"), i64("length"), date("creationDate"), str("browserUsed"), str("locationIP")))
	h.MContent, h.MLength, h.MCreation, h.MBrowser, h.MLocationIP = 0, 1, 2, 3, 4
	h.PostLanguage = 5
	// Messages are read newest first (IC2, IC9, IS2): the seal lays each
	// message label's rows out by creation date.
	for _, l := range []catalog.LabelID{h.Post, h.Comment} {
		if err := cat.SetClusterKey(l, "creationDate"); err != nil {
			panic(err)
		}
	}

	h.Forum = catalog.Must(cat.AddLabel("Forum", str("title"), date("creationDate")))
	h.FTitle, h.FCreation = 0, 1

	h.Tag = catalog.Must(cat.AddLabel("Tag", str("name")))
	h.TagClass = catalog.Must(cat.AddLabel("TagClass", str("name")))
	h.City = catalog.Must(cat.AddLabel("City", str("name")))
	h.Country = catalog.Must(cat.AddLabel("Country", str("name")))
	h.Continent = catalog.Must(cat.AddLabel("Continent", str("name")))
	h.University = catalog.Must(cat.AddLabel("University", str("name")))
	h.Company = catalog.Must(cat.AddLabel("Company", str("name")))
	h.NameProp = 0

	h.Knows = catalog.Must(cat.AddEdgeType("KNOWS", date("creationDate")))
	h.HasCreator = catalog.Must(cat.AddEdgeType("HAS_CREATOR"))
	h.Likes = catalog.Must(cat.AddEdgeType("LIKES", date("creationDate")))
	h.ReplyOf = catalog.Must(cat.AddEdgeType("REPLY_OF"))
	h.ContainerOf = catalog.Must(cat.AddEdgeType("CONTAINER_OF"))
	h.HasMember = catalog.Must(cat.AddEdgeType("HAS_MEMBER", date("joinDate")))
	h.HasModerator = catalog.Must(cat.AddEdgeType("HAS_MODERATOR"))
	h.HasTag = catalog.Must(cat.AddEdgeType("HAS_TAG"))
	h.HasInterest = catalog.Must(cat.AddEdgeType("HAS_INTEREST"))
	h.IsLocatedIn = catalog.Must(cat.AddEdgeType("IS_LOCATED_IN"))
	h.IsPartOf = catalog.Must(cat.AddEdgeType("IS_PART_OF"))
	h.HasType = catalog.Must(cat.AddEdgeType("HAS_TYPE"))
	h.StudyAt = catalog.Must(cat.AddEdgeType("STUDY_AT", i64("classYear")))
	h.WorkAt = catalog.Must(cat.AddEdgeType("WORK_AT", i64("workFrom")))
	return h
}

// Epoch date helpers: dates are stored as days since the Unix epoch. The
// simulated network runs 2010-01-01 .. 2012-12-31, like SNB's activity
// window.
const (
	DayStart = 14610 // 2010-01-01
	DayEnd   = 15705 // 2012-12-31
)
