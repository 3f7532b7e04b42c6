package service

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"ges/internal/core"
	"ges/internal/vector"
)

// boxed is the Result the handlers used to build for encoding/json: every
// value boxed into an interface.
func boxed(fb *core.FlatBlock, stats map[string]any) Result {
	resp := Result{Columns: []string{}, Rows: [][]any{}, Stats: stats}
	if fb == nil {
		return resp
	}
	resp.Columns = fb.Names
	for _, row := range fb.Rows {
		r := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case vector.KindInt64, vector.KindDate, vector.KindVID:
				r[j] = v.I
			case vector.KindFloat64:
				r[j] = v.F
			case vector.KindString:
				r[j] = v.S
			case vector.KindBool:
				r[j] = v.I != 0
			}
		}
		resp.Rows = append(resp.Rows, r)
	}
	return resp
}

// TestEncoderMatchesEncodingJSON holds the response encoder to the bytes
// json.NewEncoder(w).Encode writes for the same table.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	strs := []string{"", "plain", `quote " and \ backslash`, "<script>&amp;</script>",
		"line\u2028para\u2029end", "bad \xff utf8 \xc3", "ctl \x00\x01\b\f\n\r\t\x1f\x7f", "日本語 ✓ 🙂"}
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-300,
		1e20, 1e21, 1.2345e21, -1e21, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64}
	names := append([]string{"id", "n"}, strs...)
	kinds := make([]vector.Kind, len(names))
	fb := core.NewFlatBlock(names, kinds)
	for i, s := range strs {
		fb.Append(append([]vector.Value{vector.Int64(int64(i) - 3), vector.String_(s)}, make([]vector.Value, len(strs))...))
	}
	for _, f := range floats {
		fb.Append([]vector.Value{vector.Float64(f), vector.Date(int64(f))})
	}
	fb.Append([]vector.Value{vector.VIDValue(7), vector.Bool(true), vector.Bool(false), {}, vector.Int64(math.MinInt64)})
	fb.Append(nil)

	stats := map[string]any{
		"durationMs":            0.125,
		"peakIntermediateBytes": 4096,
		"estimatedRows":         1e-9,
		"anchor":                "a<b>",
		"params":                map[string]any{"personId": "933", "name": "x\u2028y"},
		"flag":                  true,
		"none":                  nil,
	}
	for _, c := range []struct {
		name  string
		fb    *core.FlatBlock
		stats map[string]any
	}{
		{"values", fb, stats},
		{"nil block", nil, stats},
		{"no rows", core.NewFlatBlock([]string{"a"}, []vector.Kind{vector.KindInt64}), nil},
		{"no schema", &core.FlatBlock{}, map[string]any{}},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(boxed(c.fb, c.stats)); err != nil {
			t.Fatal(err)
		}
		if got := appendResult(nil, c.fb, c.stats); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, want.Bytes())
		}
	}
}

// TestEncoderNonFiniteFloatIsNull pins the one departure from encoding/json,
// which refuses ±Inf and NaN (the handler used to log the error and answer 200
// with an empty body).
func TestEncoderNonFiniteFloatIsNull(t *testing.T) {
	fb := core.NewFlatBlock([]string{"x"}, []vector.Kind{vector.KindFloat64})
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		fb.Append([]vector.Value{vector.Float64(f)})
	}
	got := appendResult(nil, fb, map[string]any{"est": math.Inf(1)})
	const want = `{"columns":["x"],"rows":[[null],[null],[null]],"stats":{"est":null}}` + "\n"
	if string(got) != want {
		t.Fatalf("got %s want %s", got, want)
	}
}
