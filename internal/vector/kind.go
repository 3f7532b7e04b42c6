// Package vector provides the low-level columnar building blocks of the GES
// executor: typed scalar values, typed columns stored in contiguous slices,
// and the bitset selection vectors attached to every f-Tree node.
//
// Everything in this package is deliberately allocation-conscious: columns
// are plain positional slices (a VID column has one representation, owned
// VIDs, which an expand fills one adjacency run per copy), and selection
// vectors are word-packed bitsets, mirroring the cache-efficiency goals of
// the paper (§3.2, §5).
package vector

import "fmt"

// Kind identifies the runtime type of a Value or Column.
type Kind uint8

// The supported scalar kinds. KindVID is a dense internal vertex identifier
// (uint32); KindDate is a day-granularity date stored as days since epoch.
const (
	KindInvalid Kind = iota
	KindInt64
	KindVID
	KindFloat64
	KindString
	KindBool
	KindDate
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "int64"
	case KindVID:
		return "vid"
	case KindFloat64:
		return "float64"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindDate:
		return "date"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(k))
	}
}

// Width returns the in-memory width in bytes of one fixed-size element of
// this kind. Strings report the slice-header size; their payload is counted
// separately by memory accounting.
func (k Kind) Width() int {
	switch k {
	case KindInt64, KindFloat64, KindDate:
		return 8
	case KindVID:
		return 4
	case KindString:
		return 16
	case KindBool:
		return 1
	default:
		return 0
	}
}

// VID is a dense internal vertex identifier. External (user-visible) 64-bit
// identifiers are mapped to dense VIDs by the storage layer so adjacency
// arrays and intermediate columns stay compact (§5, Graph Storage).
type VID uint32

// NilVID is the sentinel for "no vertex".
const NilVID VID = ^VID(0)
