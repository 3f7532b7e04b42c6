package ldbc_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"ges/internal/catalog"
	"ges/internal/ldbc"
	"ges/internal/storage"
	"ges/internal/vector"
)

// TestGeneratedDatasetDigest pins the generated datasets byte for byte: every
// vertex (label, external id, properties) and every adjacency family's sealed
// runs (source and destination external ids, edge properties, in image
// order). They fail if the generator's own bookkeeping ever drifts from
// AddEdge order or the seal changes an image. They were re-pinned once, when
// the first seal started laying out VIDs (labels contiguous, Post and Comment
// rows by creation date): scan order and image order follow the VIDs, so the
// same graph hashes differently; nothing else about the data changed.
func TestGeneratedDatasetDigest(t *testing.T) {
	cases := []struct {
		sf   float64
		seed int64
		want string
	}{
		{0.1, 1, "a64aa51046754730"},
		{0.1, 42, "7aa4a98f3e74bd79"},
		{1, 1, "86dc0a48ad9a871e"},
		{1, 42, "f5de438c2150b3fb"},
	}
	for _, c := range cases {
		if got := datasetDigest(gen(t, ldbc.Config{SF: c.sf, Seed: c.seed})); got != c.want {
			t.Errorf("simSF %v seed %d: digest %s, want %s", c.sf, c.seed, got, c.want)
		}
	}
}

// datasetDigest hashes ds's vertices in label-scan order, then every family
// (source label, edge type, destination label, direction) in key order.
func datasetDigest(ds *ldbc.Dataset) string {
	g, cat := ds.Graph, ds.H.Cat
	h := sha256.New()
	word := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for l := 0; l < cat.NumLabels(); l++ {
		label := catalog.LabelID(l)
		defs := cat.LabelProps(label)
		vids := g.ScanLabel(label)
		word(uint64(len(vids)))
		for _, v := range vids {
			word(uint64(label))
			word(uint64(g.ExtID(v)))
			for p := range defs {
				hashValue(h, word, g.Prop(v, catalog.PropID(p)))
			}
		}
	}
	var b storage.Batch
	for src := 0; src < cat.NumLabels(); src++ {
		srcs := g.ScanLabel(catalog.LabelID(src))
		for et := 0; et < cat.NumEdgeTypes(); et++ {
			defs := cat.EdgeTypeProps(catalog.EdgeTypeID(et))
			for dst := 0; dst < cat.NumLabels(); dst++ {
				for _, dir := range []catalog.Direction{catalog.Out, catalog.In} {
					g.NeighborsBatch(srcs, catalog.EdgeTypeID(et), dir, catalog.LabelID(dst), true, &b)
					if len(b.VIDs) == 0 {
						continue
					}
					word(uint64(src)<<48 | uint64(et)<<32 | uint64(dst)<<16 | uint64(dir))
					for i, s := range srcs {
						r := b.Runs[i]
						for _, pc := range b.Pieces[r.Start:r.End] {
							cols, off := b.PieceCols(pc)
							for k, v := range b.PieceVIDs(pc) {
								word(uint64(g.ExtID(s)))
								word(uint64(g.ExtID(v)))
								for p, d := range defs {
									switch d.Kind {
									case vector.KindInt64, vector.KindDate:
										word(uint64(cols.I64[p][off+k]))
									case vector.KindFloat64:
										word(math.Float64bits(cols.F64[p][off+k]))
									case vector.KindString:
										word(uint64(len(cols.Str[p][off+k])))
										h.Write([]byte(cols.Str[p][off+k]))
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hashValue writes one property value: kind, then its payload.
func hashValue(h hash.Hash, word func(uint64), v vector.Value) {
	word(uint64(v.Kind))
	switch v.Kind {
	case vector.KindFloat64:
		word(math.Float64bits(v.F))
	case vector.KindString:
		word(uint64(len(v.S)))
		h.Write([]byte(v.S))
	default:
		word(uint64(v.I))
	}
}
