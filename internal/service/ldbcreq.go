package service

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"ges/internal/ldbc"
	"ges/internal/ldbc/queries"
	"ges/internal/vector"
)

// A POST /ldbc body, {"name": …, "params": {…}}, is scanned by hand and bound
// straight into queries.Params by the query's own parameter schema. The
// scanner accepts exactly the bodies encoding/json decodes into LDBCRequest
// with unknown fields disallowed and nothing after the value, and reads them
// the same way: field names match case-insensitively, a repeated field's
// later value wins (a repeated params object adds its members to the earlier
// one; "params": null drops them), a top-level null is an empty request, and
// strings decode with invalid UTF-8 and unpaired surrogates replaced by
// U+FFFD. FuzzLDBCRequest holds it to that. Binding is strict: params must
// name exactly the query's parameters, an integer parameter takes an integer
// literal — parsed exactly, never through float64 — and a string parameter a
// string.

// ldbcParam is one parameter of a query: a name and kind its GenParams draws.
type ldbcParam struct {
	name string
	kind vector.Kind
}

// ldbcQuery is a workload query with its parameter schema.
type ldbcQuery struct {
	q      *queries.Query
	params []ldbcParam // sorted by name
}

// ldbcSchemas derives every query's parameter schema from one GenParams draw
// on the dataset. An update's draw reserves fresh external ids, as each of
// its draws does; ids are never reused, so the ones skipped cost nothing.
func ldbcSchemas(ds *ldbc.Dataset) map[string]*ldbcQuery {
	pg := ds.NewParamGen(0)
	out := make(map[string]*ldbcQuery, len(queries.All()))
	for _, q := range queries.All() {
		lq := &ldbcQuery{q: q}
		for name, v := range q.GenParams(ds, pg) {
			lq.params = append(lq.params, ldbcParam{name: name, kind: v.Kind})
		}
		slices.SortFunc(lq.params, func(a, b ldbcParam) int { return strings.Compare(a.name, b.name) })
		out[q.Name] = lq
	}
	return out
}

// bind types the scanned params by the query's schema.
func (lq *ldbcQuery) bind(req *ldbcBody) (queries.Params, error) {
	for _, rp := range req.params {
		if !slices.ContainsFunc(lq.params, func(d ldbcParam) bool { return d.name == string(rp.key) }) {
			return nil, fmt.Errorf("%s has no parameter %q", lq.q.Name, rp.key)
		}
	}
	p := make(queries.Params, len(lq.params))
	for _, d := range lq.params {
		i := slices.IndexFunc(req.params, func(rp rawParam) bool { return string(rp.key) == d.name })
		if i < 0 {
			return nil, fmt.Errorf("%s: missing parameter %q", lq.q.Name, d.name)
		}
		// The last of repeated keys wins.
		for j := i + 1; j < len(req.params); j++ {
			if string(req.params[j].key) == d.name {
				i = j
			}
		}
		v, err := bindValue(d.kind, req.params[i].val)
		if err != nil {
			return nil, fmt.Errorf("%s: parameter %q: %w", lq.q.Name, d.name, err)
		}
		p[d.name] = v
	}
	return p, nil
}

// bindValue converts one raw JSON value to a parameter of kind.
func bindValue(kind vector.Kind, tok []byte) (vector.Value, error) {
	switch kind {
	case vector.KindInt64, vector.KindDate:
		i, ok := parseInt(tok)
		if !ok {
			return vector.Value{}, fmt.Errorf("want an integer")
		}
		if kind == vector.KindDate {
			return vector.Date(i), nil
		}
		return vector.Int64(i), nil
	case vector.KindString:
		if tok[0] != '"' {
			return vector.Value{}, fmt.Errorf("want a string")
		}
		s := scanner{b: tok}
		b, err := s.str()
		if err != nil {
			return vector.Value{}, err
		}
		return vector.String_(string(b)), nil
	}
	return vector.Value{}, fmt.Errorf("a %s parameter cannot be bound", kind)
}

// parseInt reads a JSON number that is an integer literal in int64 range;
// a fraction, an exponent or a larger magnitude is not one.
func parseInt(tok []byte) (int64, bool) {
	digits := bytes.TrimPrefix(tok, []byte("-"))
	neg := len(digits) < len(tok)
	if len(digits) == 0 {
		return 0, false
	}
	const lim = uint64(1) << 63
	var u uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if u > (lim-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return int64(-u), true // -2^63 wraps to itself
	}
	if u > math.MaxInt64 {
		return 0, false
	}
	return int64(u), true
}

// ldbcBody is one scanned request: the body bytes and what they name. name,
// and each param's key and raw value, alias the body or a decoded copy.
// Bodies recycle through ldbcBodies, so nothing read from one may outlive
// the request unless copied.
type ldbcBody struct {
	buf       bytes.Buffer
	name      []byte
	hasParams bool       // a params object was given, not absent or null
	params    []rawParam // params members in body order
}

// rawParam is one member of the params object.
type rawParam struct {
	key, val []byte
}

var ldbcBodies = sync.Pool{New: func() any { return new(ldbcBody) }}

// maxPooledBody keeps one large request from pinning its buffer in the pool.
const maxPooledBody = 64 << 10

func putLDBCBody(b *ldbcBody) {
	if b.buf.Cap() > maxPooledBody {
		return
	}
	b.buf.Reset()
	b.name, b.hasParams = nil, false
	clear(b.params)
	b.params = b.params[:0]
	ldbcBodies.Put(b)
}

// maxDepth is encoding/json's nesting limit: it rejects a value whose arrays
// and objects, the request object included, nest deeper.
const maxDepth = 10000

var (
	nameField   = []byte("name")
	paramsField = []byte("params")
)

// scan parses the request held in b.buf.
func (b *ldbcBody) scan() error {
	s := scanner{b: b.buf.Bytes()}
	s.space()
	if s.literal("null") {
		return s.end()
	}
	if !s.consume('{') {
		return s.errorf("want an object")
	}
	s.space()
	if s.consume('}') {
		return s.end()
	}
	for {
		s.space()
		key, err := s.str()
		if err != nil {
			return err
		}
		s.space()
		if !s.consume(':') {
			return s.errorf("want ':'")
		}
		s.space()
		switch {
		case bytes.EqualFold(key, nameField):
			if !s.literal("null") {
				if b.name, err = s.str(); err != nil {
					return err
				}
			}
		case bytes.EqualFold(key, paramsField):
			if s.literal("null") {
				clear(b.params)
				b.hasParams, b.params = false, b.params[:0]
			} else if err := b.scanParams(&s); err != nil {
				return err
			}
		default:
			return s.errorf("unknown field %q", key)
		}
		s.space()
		if s.consume(',') {
			continue
		}
		if s.consume('}') {
			return s.end()
		}
		return s.errorf("want ',' or '}'")
	}
}

// scanParams reads the params object, keeping each member's raw value.
func (b *ldbcBody) scanParams(s *scanner) error {
	if !s.consume('{') {
		return s.errorf("params: want an object")
	}
	b.hasParams = true
	s.space()
	if s.consume('}') {
		return nil
	}
	for {
		s.space()
		key, err := s.str()
		if err != nil {
			return err
		}
		s.space()
		if !s.consume(':') {
			return s.errorf("want ':'")
		}
		s.space()
		start := s.i
		if err := s.value(2); err != nil {
			return err
		}
		b.params = append(b.params, rawParam{key: key, val: s.b[start:s.i]})
		s.space()
		if s.consume(',') {
			continue
		}
		if s.consume('}') {
			return nil
		}
		return s.errorf("want ',' or '}'")
	}
}

// scanner reads JSON from b at offset i.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("request body: offset %d: %s", s.i, fmt.Sprintf(format, args...))
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume advances past c if it is next.
func (s *scanner) consume(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal advances past lit if it is next.
func (s *scanner) literal(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// end checks that only whitespace follows.
func (s *scanner) end() error {
	s.space()
	if s.i < len(s.b) {
		return s.errorf("data after the request object")
	}
	return nil
}

// value skips one JSON value nested in depth open arrays and objects,
// checking its syntax.
func (s *scanner) value(depth int) error {
	if s.i >= len(s.b) {
		return s.errorf("unexpected end")
	}
	switch c := s.b[s.i]; {
	case c == '"':
		_, _, err := s.strEnd()
		return err
	case c == '{' || c == '[':
		if depth++; depth > maxDepth {
			return s.errorf("nested deeper than %d", maxDepth)
		}
		s.i++
		closing := byte('}')
		if c == '[' {
			closing = ']'
		}
		s.space()
		if s.consume(closing) {
			return nil
		}
		for {
			s.space()
			if c == '{' {
				if _, _, err := s.strEnd(); err != nil {
					return err
				}
				s.space()
				if !s.consume(':') {
					return s.errorf("want ':'")
				}
				s.space()
			}
			if err := s.value(depth); err != nil {
				return err
			}
			s.space()
			if s.consume(',') {
				continue
			}
			if s.consume(closing) {
				return nil
			}
			return s.errorf("want ',' or '%c'", closing)
		}
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	case s.literal("true"), s.literal("false"), s.literal("null"):
		return nil
	}
	return s.errorf("invalid character %q", s.b[s.i])
}

// number skips a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) number() error {
	s.consume('-')
	switch {
	case s.consume('0'):
	case s.digits() == 0:
		return s.errorf("invalid number")
	}
	if s.consume('.') && s.digits() == 0 {
		return s.errorf("invalid number")
	}
	if s.consume('e') || s.consume('E') {
		if !s.consume('+') {
			s.consume('-')
		}
		if s.digits() == 0 {
			return s.errorf("invalid number")
		}
	}
	return nil
}

// digits skips a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// strEnd skips a JSON string, checking its syntax. plain reports that it
// holds no escape and only valid UTF-8, so its bytes are its value.
func (s *scanner) strEnd() (start int, plain bool, err error) {
	if !s.consume('"') {
		return 0, false, s.errorf("want a string")
	}
	start, plain = s.i, true
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return start, plain, nil
		case c < 0x20:
			return 0, false, s.errorf("control character in string")
		case c == '\\':
			plain = false
			s.i++
			if s.i >= len(s.b) {
				break
			}
			switch s.b[s.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.i++
			case 'u':
				if _, ok := hex4(s.b[s.i+1:]); !ok {
					return 0, false, s.errorf("invalid \\u escape")
				}
				s.i += 5
			default:
				return 0, false, s.errorf("invalid escape")
			}
		case c < utf8.RuneSelf:
			s.i++
		default:
			r, n := utf8.DecodeRune(s.b[s.i:])
			if r == utf8.RuneError && n == 1 {
				plain = false
			}
			s.i += n
		}
	}
	return 0, false, s.errorf("unterminated string")
}

// str reads a JSON string and returns its value: the body bytes themselves
// when they are plain, else a decoded copy.
func (s *scanner) str() ([]byte, error) {
	start, plain, err := s.strEnd()
	switch {
	case err != nil:
		return nil, err
	case plain:
		return s.b[start : s.i-1], nil
	}
	return unquote(s.b[start : s.i-1]), nil
}

// unquote decodes the contents of a syntactically valid JSON string as
// encoding/json does: escapes resolved, a surrogate pair joined, an unpaired
// surrogate and each byte of invalid UTF-8 replaced by U+FFFD.
func unquote(b []byte) []byte {
	out := make([]byte, 0, len(b))
	for i := 0; i < len(b); {
		c := b[i]
		switch {
		case c == '\\':
			i++
			switch b[i] {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, _ := hex4(b[i+1:])
				i += 4
				if utf16.IsSurrogate(r) {
					// Joined with a following \u escape if the two form a pair.
					var lo rune = -1
					if i+6 < len(b) && b[i+1] == '\\' && b[i+2] == 'u' {
						lo, _ = hex4(b[i+3:])
					}
					if r = utf16.DecodeRune(r, lo); r != unicode.ReplacementChar {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default: // '"', '\\', '/'
				out = append(out, b[i])
			}
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, n := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += n
		}
	}
	return out
}

// hex4 reads four hex digits.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
