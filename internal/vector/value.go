package vector

import (
	"fmt"
	"strconv"
)

// Value is a small tagged union holding one scalar. It is the row-oriented
// currency of the flat-block fallback path; the factorized path never boxes
// values, it works directly on columns.
type Value struct {
	Kind Kind
	I    int64   // KindInt64, KindVID (widened), KindDate, KindBool (0/1)
	F    float64 // KindFloat64
	S    string  // KindString
}

// Int64 returns a Value of KindInt64.
func Int64(v int64) Value { return Value{Kind: KindInt64, I: v} }

// VIDValue returns a Value of KindVID.
func VIDValue(v VID) Value { return Value{Kind: KindVID, I: int64(v)} }

// Float64 returns a Value of KindFloat64.
func Float64(v float64) Value { return Value{Kind: KindFloat64, F: v} }

// String_ returns a Value of KindString. The trailing underscore avoids
// colliding with the String method required by fmt.Stringer.
func String_(v string) Value { return Value{Kind: KindString, S: v} }

// Bool returns a Value of KindBool.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{Kind: KindBool, I: i}
}

// Date returns a Value of KindDate storing days since the Unix epoch.
func Date(days int64) Value { return Value{Kind: KindDate, I: days} }

// AsVID returns the value as a VID; it panics if the kind is not KindVID.
func (v Value) AsVID() VID {
	if v.Kind != KindVID {
		panic(fmt.Sprintf("vector: AsVID on %s value", v.Kind))
	}
	return VID(v.I)
}

// AsBool reports the boolean interpretation of a KindBool value.
func (v Value) AsBool() bool { return v.Kind == KindBool && v.I != 0 }

// String renders the value for debugging and result printing.
func (v Value) String() string {
	switch v.Kind {
	case KindInt64, KindDate:
		return strconv.FormatInt(v.I, 10)
	case KindVID:
		return "v" + strconv.FormatInt(v.I, 10)
	case KindFloat64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	default:
		return "<invalid>"
	}
}

// MemBytes returns the accounted size of the value: the struct itself plus
// string payload.
func (v Value) MemBytes() int {
	const structSize = 40 // kind + padding + I + F + string header
	return structSize + len(v.S)
}

// Compare orders two values of the same kind: -1, 0 or +1. Values of
// different kinds order by kind, which gives a stable (if arbitrary) total
// order; the planner only ever compares same-kind values.
func Compare(a, b Value) int {
	if a.Kind != b.Kind {
		// Allow int64/date/vid/bool cross-compare through I.
		if isIntLike(a.Kind) && isIntLike(b.Kind) {
			return cmpInt(a.I, b.I)
		}
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case KindInt64, KindVID, KindBool, KindDate:
		return cmpInt(a.I, b.I)
	case KindFloat64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		default:
			return 0
		}
	case KindString:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Equal reports whether two values are equal under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

func isIntLike(k Kind) bool {
	return k == KindInt64 || k == KindVID || k == KindBool || k == KindDate
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
