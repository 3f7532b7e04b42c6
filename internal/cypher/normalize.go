package cypher

import (
	"strconv"
	"strings"

	"ges/internal/vector"
)

// Normalize rewrites a query's parameterizable literals into $k
// placeholders and returns the normalized text plus the extracted values in
// slot order (slot k = params[k-1]). Literal-differing queries normalize to
// the same text, so the plan cache (Cache) can serve one compiled
// skeleton for all of them and re-bind the values per request.
//
// The normalized text is a canonical token rendering (single spaces,
// uppercased keywords), which also folds whitespace and keyword-case
// variants of the same query onto one cache entry. It re-lexes to the same
// token stream, so cache misses compile from the normalized text directly.
//
// Literals that shape the plan rather than filter rows stay inline:
//   - SKIP / LIMIT counts (they parameterize operators structurally),
//   - anything inside [...] brackets — variable-length hop bounds and
//     IN-lists (the In evaluator bakes its list into the compiled plan),
//   - CONTAINS / STARTS WITH / ENDS WITH patterns (the StrPred node holds
//     a raw string, not an expression).
func Normalize(src string) (string, []vector.Value, error) {
	toks, err := lex(src)
	if err != nil {
		return "", nil, err
	}
	var (
		sb       strings.Builder
		params   []vector.Value
		brackets int
		prevKw   string // previous keyword token, "" after any other token
	)
	put := func(s string) {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(s)
	}
	for _, t := range toks {
		inline := brackets > 0 || prevKw == "SKIP" || prevKw == "LIMIT" ||
			prevKw == "CONTAINS" || prevKw == "WITH"
		switch t.kind {
		case tkEOF:
			continue
		case tkLBracket:
			brackets++
			put("[")
		case tkRBracket:
			brackets--
			put("]")
		case tkInt:
			if inline {
				put(t.text)
				break
			}
			v, perr := strconv.ParseInt(t.text, 10, 64)
			if perr != nil {
				put(t.text)
				break
			}
			params = append(params, vector.Int64(v))
			put("$" + strconv.Itoa(len(params)))
		case tkFloat:
			if inline {
				put(t.text)
				break
			}
			v, perr := strconv.ParseFloat(t.text, 64)
			if perr != nil {
				put(t.text)
				break
			}
			params = append(params, vector.Float64(v))
			put("$" + strconv.Itoa(len(params)))
		case tkString:
			if inline {
				put(quoteString(t.text))
				break
			}
			params = append(params, vector.String_(t.text))
			put("$" + strconv.Itoa(len(params)))
		case tkParam:
			// Already-parameterized text passes through untouched; mixing
			// explicit $k with extracted literals would renumber slots, so
			// the caller's own parameters win and nothing is extracted.
			return canonicalText(toks), nil, nil
		default:
			put(t.text)
		}
		if t.kind == tkKeyword {
			prevKw = t.text
		} else {
			prevKw = ""
		}
	}
	return sb.String(), params, nil
}

// canonicalText renders a token stream without extracting parameters.
func canonicalText(toks []token) string {
	var sb strings.Builder
	for _, t := range toks {
		if t.kind == tkEOF {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		switch t.kind {
		case tkString:
			sb.WriteString(quoteString(t.text))
		case tkParam:
			sb.WriteString("$" + t.text)
		default:
			sb.WriteString(t.text)
		}
	}
	return sb.String()
}

// quoteString renders a string literal so it re-lexes to the same value.
func quoteString(s string) string {
	var sb strings.Builder
	sb.WriteByte('\'')
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' || s[i] == '\\' {
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
	sb.WriteByte('\'')
	return sb.String()
}
