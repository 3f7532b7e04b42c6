package service

import (
	"encoding/json"
	"log"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"ges/internal/core"
	"ges/internal/vector"
)

// The response encoder writes a result table straight from the engine's
// flat block. Its bytes are exactly what json.NewEncoder(w).Encode of the
// equivalent Result writes — fields in the order columns, rows, stats;
// HTML-safe string escapes, U+2028/U+2029 escaped, invalid UTF-8 as the
// six-character escape \ufffd; encoding/json's float format; a trailing
// newline — without boxing every value into an interface for reflection. The one departure: a non-finite
// float, which encoding/json refuses (the response would be empty), is
// written as null.

// encBufs recycles response buffers across requests.
var encBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf keeps one huge response from pinning its buffer in the pool.
const maxPooledBuf = 1 << 20

// writeResult answers 200 with the result table of fb and the request stats.
func writeResult(w http.ResponseWriter, fb *core.FlatBlock, stats map[string]any) {
	buf := encBufs.Get().(*[]byte)
	b := appendResult((*buf)[:0], fb, stats)
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(b); err != nil {
		log.Printf("service: write: %v", err)
	}
	if cap(b) <= maxPooledBuf {
		*buf = b
		encBufs.Put(buf)
	}
}

// appendResult appends the encoding of Result{Columns, Rows, Stats} for fb.
func appendResult(dst []byte, fb *core.FlatBlock, stats map[string]any) []byte {
	dst = append(dst, `{"columns":`...)
	switch {
	case fb == nil:
		dst = append(dst, "[]"...)
	case fb.Names == nil:
		dst = append(dst, "null"...)
	default:
		dst = append(dst, '[')
		for i, name := range fb.Names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, name)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"rows":[`...)
	if fb != nil {
		for i, row := range fb.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for j, v := range row {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendValue(dst, v)
			}
			dst = append(dst, ']')
		}
	}
	dst = append(dst, `],"stats":`...)
	dst = appendAny(dst, stats)
	return append(dst, "}\n"...)
}

// appendValue encodes one result value the way Result's []any held it.
func appendValue(dst []byte, v vector.Value) []byte {
	switch v.Kind {
	case vector.KindInt64, vector.KindDate, vector.KindVID:
		return strconv.AppendInt(dst, v.I, 10)
	case vector.KindFloat64:
		return appendFloat(dst, v.F)
	case vector.KindString:
		return appendString(dst, v.S)
	case vector.KindBool:
		return strconv.AppendBool(dst, v.I != 0)
	default:
		return append(dst, "null"...)
	}
}

// appendAny encodes the stats values the handlers produce; any other type
// goes through encoding/json.
func appendAny(dst []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return appendString(dst, x)
	case float64:
		return appendFloat(dst, x)
	case int:
		return strconv.AppendInt(dst, int64(x), 10)
	case map[string]any:
		if x == nil {
			return append(dst, "null"...)
		}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(appendString(dst, k), ':')
			dst = appendAny(dst, x[k])
		}
		return append(dst, '}')
	}
	b, err := json.Marshal(v)
	if err != nil {
		return append(dst, "null"...)
	}
	return append(dst, b...)
}

// appendFloat is encoding/json's float64 format (ES6 number-to-string:
// exponent form outside [1e-6, 1e21), exponent digits unpadded).
func appendFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString is encoding/json's HTML-safe string encoding.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, `\b`...)
			case '\f':
				dst = append(dst, `\f`...)
			case '\n':
				dst = append(dst, `\n`...)
			case '\r':
				dst = append(dst, `\r`...)
			case '\t':
				dst = append(dst, `\t`...)
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
