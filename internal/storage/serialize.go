package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// Snapshot format: a compact varint-based binary encoding of the catalog
// and the base graph. It exists so a bulk-loaded (or generated) graph can be
// persisted and reopened without re-running ingestion — the GES service's
// cold-start path.
//
//	magic "GESSNAP1"
//	catalog: labels (name + prop defs), edge types (name + prop defs)
//	vertices: per label: count, then per vertex (extID, property values)
//	edges: per Out-direction adjacency family: src/dst label, edge type,
//	       entry count, then (src, dst, edge property values)*
const snapshotMagic = "GESSNAP1"

type snapWriter struct {
	w   *bufio.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (s *snapWriter) uvarint(v uint64) {
	if s.err != nil {
		return
	}
	n := binary.PutUvarint(s.buf[:], v)
	_, s.err = s.w.Write(s.buf[:n])
}

func (s *snapWriter) varint(v int64) {
	if s.err != nil {
		return
	}
	n := binary.PutVarint(s.buf[:], v)
	_, s.err = s.w.Write(s.buf[:n])
}

func (s *snapWriter) str(v string) {
	s.uvarint(uint64(len(v)))
	if s.err == nil {
		_, s.err = s.w.WriteString(v)
	}
}

func (s *snapWriter) value(v vector.Value, k vector.Kind) {
	switch k {
	case vector.KindInt64, vector.KindDate, vector.KindBool:
		s.varint(v.I)
	case vector.KindFloat64:
		s.uvarint(math.Float64bits(v.F))
	case vector.KindString:
		s.str(v.S)
	default:
		s.err = fmt.Errorf("storage: cannot serialize kind %s", k)
	}
}

type snapReader struct {
	r   *bufio.Reader
	err error
}

func (s *snapReader) uvarint() uint64 {
	if s.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(s.r)
	s.err = err
	return v
}

func (s *snapReader) varint() int64 {
	if s.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(s.r)
	s.err = err
	return v
}

func (s *snapReader) str() string {
	n := s.uvarint()
	if s.err != nil {
		return ""
	}
	if n > 1<<30 {
		s.err = fmt.Errorf("storage: implausible string length %d", n)
		return ""
	}
	buf := make([]byte, n)
	_, s.err = io.ReadFull(s.r, buf)
	return string(buf)
}

func (s *snapReader) value(k vector.Kind) vector.Value {
	switch k {
	case vector.KindInt64, vector.KindDate, vector.KindBool:
		return vector.Value{Kind: k, I: s.varint()}
	case vector.KindFloat64:
		return vector.Float64(math.Float64frombits(s.uvarint()))
	case vector.KindString:
		return vector.String_(s.str())
	default:
		s.err = fmt.Errorf("storage: cannot deserialize kind %s", k)
		return vector.Value{}
	}
}

// Save writes the catalog and the graph as a snapshot: every vertex and
// edge at the graph's read version, committed ones included. Vertices are
// written by external id, so Load renumbers them densely and the VIDs aborted
// transactions left unused disappear. Callers persist a quiesced (or freshly
// loaded) graph; one still in the bulk phase is sealed first.
func (g *Graph) Save(w io.Writer) error {
	g.sealBulk()
	at := g.At(g.readVersion())
	sw := &snapWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := sw.w.WriteString(snapshotMagic); err != nil {
		return err
	}
	cat := g.cat

	// Catalog.
	sw.uvarint(uint64(cat.NumLabels()))
	for l := 0; l < cat.NumLabels(); l++ {
		id := catalog.LabelID(l)
		sw.str(cat.LabelName(id))
		defs := cat.LabelProps(id)
		sw.uvarint(uint64(len(defs)))
		for _, d := range defs {
			sw.str(d.Name)
			sw.uvarint(uint64(d.Kind))
		}
	}
	sw.uvarint(uint64(cat.NumEdgeTypes()))
	for e := 0; e < cat.NumEdgeTypes(); e++ {
		id := catalog.EdgeTypeID(e)
		sw.str(cat.EdgeTypeName(id))
		defs := cat.EdgeTypeProps(id)
		sw.uvarint(uint64(len(defs)))
		for _, d := range defs {
			sw.str(d.Name)
			sw.uvarint(uint64(d.Kind))
		}
	}

	// Vertices, per label, in VID order within the label.
	for l := 0; l < cat.NumLabels(); l++ {
		id := catalog.LabelID(l)
		defs := cat.LabelProps(id)
		vids := at.ScanLabel(id)
		sw.uvarint(uint64(len(vids)))
		for _, v := range vids {
			sw.varint(g.ExtID(v))
			for p := range defs {
				sw.value(g.Prop(v, catalog.PropID(p)), defs[p].Kind)
			}
		}
	}

	// Edges: every Out-direction family once (the In direction is rebuilt).
	type famDump struct {
		key  AdjKey
		list *AdjList
	}
	var fams []famDump
	for key, list := range g.fams.Load().adj {
		if key.Dir == catalog.Out {
			fams = append(fams, famDump{key, list})
		}
	}
	// Deterministic order.
	for i := 0; i < len(fams); i++ {
		for j := i + 1; j < len(fams); j++ {
			a, b := fams[i].key, fams[j].key
			if b.Src < a.Src || (b.Src == a.Src && (b.Et < a.Et || (b.Et == a.Et && b.Dst < a.Dst))) {
				fams[i], fams[j] = fams[j], fams[i]
			}
		}
	}
	sw.uvarint(uint64(len(fams)))
	for _, f := range fams {
		sw.uvarint(uint64(f.key.Src))
		sw.uvarint(uint64(f.key.Et))
		sw.uvarint(uint64(f.key.Dst))
		defs := cat.EdgeTypeProps(f.key.Et)
		c := f.list.snap.Load()
		// Only a vertex of the family's source label can be a source. Each
		// run is read the way Neighbors reads it: the sealed image merged
		// with the delta entries visible at the read version.
		srcs := at.ScanLabel(f.key.Src)
		n := 0
		for _, src := range srcs {
			n += c.runLen(src, at.ver)
		}
		sw.uvarint(uint64(n))
		for _, src := range srcs {
			seg, _ := c.segmentAt(src, true, at.ver)
			for i, dst := range seg.VIDs {
				sw.varint(g.ExtID(src))
				sw.varint(g.ExtID(dst))
				for p, d := range defs {
					var v vector.Value
					switch d.Kind {
					case vector.KindInt64, vector.KindDate:
						v = vector.Value{Kind: d.Kind, I: seg.PropI64[p][i]}
					case vector.KindFloat64:
						v = vector.Float64(seg.PropF64[p][i])
					case vector.KindString:
						v = vector.String_(seg.PropStr[p][i])
					}
					sw.value(v, d.Kind)
				}
			}
		}
	}
	if sw.err != nil {
		return sw.err
	}
	return sw.w.Flush()
}

// Load reads a snapshot, returning a freshly built graph and its catalog.
func Load(r io.Reader) (*Graph, *catalog.Catalog, error) {
	sr := &snapReader{r: bufio.NewReaderSize(r, 1<<16)}
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(sr.r, magic); err != nil {
		return nil, nil, fmt.Errorf("storage: reading snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, nil, fmt.Errorf("storage: not a GES snapshot (magic %q)", magic)
	}

	cat := catalog.New()
	nLabels := int(sr.uvarint())
	for l := 0; l < nLabels && sr.err == nil; l++ {
		name := sr.str()
		nProps := int(sr.uvarint())
		defs := make([]catalog.PropDef, nProps)
		for p := 0; p < nProps; p++ {
			defs[p] = catalog.PropDef{Name: sr.str(), Kind: vector.Kind(sr.uvarint())}
		}
		if sr.err == nil {
			if _, err := cat.AddLabel(name, defs...); err != nil {
				return nil, nil, err
			}
		}
	}
	nEts := int(sr.uvarint())
	for e := 0; e < nEts && sr.err == nil; e++ {
		name := sr.str()
		nProps := int(sr.uvarint())
		defs := make([]catalog.PropDef, nProps)
		for p := 0; p < nProps; p++ {
			defs[p] = catalog.PropDef{Name: sr.str(), Kind: vector.Kind(sr.uvarint())}
		}
		if sr.err == nil {
			if _, err := cat.AddEdgeType(name, defs...); err != nil {
				return nil, nil, err
			}
		}
	}

	g := NewGraph(cat)
	for l := 0; l < nLabels && sr.err == nil; l++ {
		id := catalog.LabelID(l)
		defs := cat.LabelProps(id)
		n := int(sr.uvarint())
		for i := 0; i < n && sr.err == nil; i++ {
			ext := sr.varint()
			props := make([]vector.Value, len(defs))
			for p := range defs {
				props[p] = sr.value(defs[p].Kind)
			}
			if sr.err == nil {
				if _, err := g.AddVertex(id, ext, props...); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	nFams := int(sr.uvarint())
	for f := 0; f < nFams && sr.err == nil; f++ {
		srcLabel := catalog.LabelID(sr.uvarint())
		et := catalog.EdgeTypeID(sr.uvarint())
		dstLabel := catalog.LabelID(sr.uvarint())
		defs := cat.EdgeTypeProps(et)
		n := int(sr.uvarint())
		for i := 0; i < n && sr.err == nil; i++ {
			srcExt := sr.varint()
			dstExt := sr.varint()
			props := make([]vector.Value, len(defs))
			for p := range defs {
				props[p] = sr.value(defs[p].Kind)
			}
			if sr.err != nil {
				break
			}
			src, ok := g.VertexByExt(srcLabel, srcExt)
			if !ok {
				return nil, nil, fmt.Errorf("storage: snapshot references unknown vertex %d", srcExt)
			}
			dst, ok := g.VertexByExt(dstLabel, dstExt)
			if !ok {
				return nil, nil, fmt.Errorf("storage: snapshot references unknown vertex %d", dstExt)
			}
			if err := g.AddEdge(et, src, dst, props...); err != nil {
				return nil, nil, err
			}
		}
	}
	if sr.err != nil {
		return nil, nil, fmt.Errorf("storage: corrupt snapshot: %w", sr.err)
	}
	return g, cat, nil
}
