package storage

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"ges/internal/catalog"
	"ges/internal/vector"
)

// Snapshot format: a compact varint-based binary encoding of the catalog
// and the base graph. It exists so a bulk-loaded (or generated) graph can be
// persisted and reopened without re-running ingestion — the GES service's
// cold-start path.
//
//	magic "GESSNAP2"
//	catalog: labels (name + prop defs + clustering key), edge types (name +
//	         prop defs)
//	vertices: per label: count, then per vertex (extID, property values)
//	edges: per Out-direction adjacency family: src/dst label, edge type,
//	       entry count, then (src, dst, edge property values)*
const snapshotMagic = "GESSNAP2"

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
		key, ok := cat.ClusterKey(id)
		if !ok {
			key = catalog.PropID(len(defs)) // none
		}
		sw.uvarint(uint64(key))
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
	var keys []AdjKey
	for key := range g.fams.Load().adj {
		if key.Dir == catalog.Out {
			keys = append(keys, key)
		}
	}
	slices.SortFunc(keys, func(a, b AdjKey) int { // deterministic order
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Et, b.Et), cmp.Compare(a.Dst, b.Dst))
	})
	sw.uvarint(uint64(len(keys)))
	var b Batch
	for _, key := range keys {
		sw.uvarint(uint64(key.Src))
		sw.uvarint(uint64(key.Et))
		sw.uvarint(uint64(key.Dst))
		defs := cat.EdgeTypeProps(key.Et)
		// Only a vertex of the family's source label can be a source; one
		// batch reads every run of the family at the read version.
		srcs := at.ScanLabel(key.Src)
		at.NeighborsBatch(srcs, key.Et, catalog.Out, key.Dst, true, &b)
		n := 0
		for i := range srcs {
			n += b.RunLen(i)
		}
		sw.uvarint(uint64(n))
		for i, src := range srcs {
			r := b.Runs[i]
			for _, p := range b.Pieces[r.Start:r.End] {
				cols, off := b.PieceCols(p)
				for k, dst := range b.PieceVIDs(p) {
					sw.varint(g.ExtID(src))
					sw.varint(g.ExtID(dst))
					for q, d := range defs {
						sw.value(cols.Value(q, d.Kind, off+k), d.Kind)
					}
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
		key := int(sr.uvarint())
		if sr.err == nil {
			id, err := cat.AddLabel(name, defs...)
			if err == nil && key < nProps {
				err = cat.SetClusterKey(id, defs[key].Name)
			}
			if err != nil {
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
			src, ok := g.LoadedVertex(srcLabel, srcExt)
			if !ok {
				return nil, nil, fmt.Errorf("storage: snapshot references unknown vertex %d", srcExt)
			}
			dst, ok := g.LoadedVertex(dstLabel, dstExt)
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
