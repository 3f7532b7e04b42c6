package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ges/internal/ldbc/queries"
	"ges/internal/vector"
)

// refDecode is what encoding/json reads from body as an LDBCRequest, with
// unknown fields disallowed and nothing allowed after the value. Numbers are
// kept as written (UseNumber), so the reference is exact past 2^53 too.
func refDecode(body []byte) (LDBCRequest, error) {
	var req LDBCRequest
	if !json.Valid(body) {
		return req, errors.New("invalid JSON")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	dec.UseNumber()
	return req, dec.Decode(&req)
}

// refBind is the strict binding contract over decoded params.
func refBind(schema []ldbcParam, raw map[string]any) (queries.Params, error) {
	for k := range raw {
		if !slices.ContainsFunc(schema, func(d ldbcParam) bool { return d.name == k }) {
			return nil, fmt.Errorf("no parameter %q", k)
		}
	}
	out := make(queries.Params, len(schema))
	for _, d := range schema {
		v, ok := raw[d.name]
		if !ok {
			return nil, fmt.Errorf("missing %q", d.name)
		}
		switch d.kind {
		case vector.KindString:
			s, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("%q: want a string", d.name)
			}
			out[d.name] = vector.String_(s)
		default:
			n, ok := v.(json.Number)
			if !ok || strings.ContainsAny(string(n), ".eE") {
				return nil, fmt.Errorf("%q: want an integer", d.name)
			}
			i, err := strconv.ParseInt(string(n), 10, 64)
			if err != nil {
				return nil, err
			}
			out[d.name] = vector.Value{Kind: d.kind, I: i}
		}
	}
	return out, nil
}

// ldbcSeeds cover the string grammar (escapes, surrogate pairs and lone
// halves, invalid UTF-8), nesting, null, duplicate keys, whitespace and
// integers exact only past float64.
var ldbcSeeds = []string{
	`{"name":"IS1","params":{"id":1,"date":2,"s":"x"}}`,
	`{"name":"IS1"}`,
	`{"name":"IS1","params":null}`,
	`null`,
	` {} `,
	"\t{\n\"name\" :\r\"IS1\" , \"params\" : { \"id\" : -0 , \"date\" : 0 , \"s\" : \"\" } }\n",
	`{"NAME":"is1","Params":{"id":1,"date":2,"s":"y"}}`,
	`{"name":"IS1","params":{"id":1,"date":2,"s":"\"\\\/\b\f\n\r\t"}}`,
	`{"name":"IS1","params":{"id":1,"date":2,"s":"😀 \ud83d \ude00 \ud83dx é"}}`,
	"{\"name\":\"I\xffS1\",\"params\":{\"id\":1,\"date\":2,\"s\":\"a\xc3\x28b\xed\xa0\x80\"}}",
	`{"name":"IS1","params":{"id":9007199254740993,"date":-9223372036854775808,"s":"big"}}`,
	`{"name":"IS1","params":{"id":9223372036854775808,"date":2,"s":"x"}}`,
	`{"name":"IS1","params":{"id":1.5,"date":2,"s":"x"}}`,
	`{"name":"IS1","params":{"id":1e3,"date":2,"s":"x"}}`,
	`{"name":"IS1","params":{"id":"1","date":2,"s":7}}`,
	`{"name":"IS1","params":{"id":[1,{"a":[true,false,null]}],"date":2,"s":"x"}}`,
	`{"name":"IS1","params":{"id":{"b":[[[]]]},"date":2,"s":"x"},"params":{"id":3}}`,
	`{"name":"IS1","params":{"id":1,"id":2,"date":2,"s":"x","s":"y"}}`,
	`{"name":"IS1","params":{"id":1},"params":{"date":2,"s":"x"}}`,
	`{"name":"IS1","params":{"id":1,"date":2,"s":"x"},"params":null}`,
	`{"name":"IS1","name":null,"name":"IS2"}`,
	`{"name":"IS1","params":{"id":1,"date":2,"s":"x"},"extra":1}`,
	`{"name":"IS1"} {}`,
	`{"name":"IS1",}`,
	`{"name":"IS1","params":{"id":01,"date":2,"s":"x"}}`,
	`{"name":"IS1","params":{"id":1,"date":2,"s":"\x"}}`,
	"{\"name\":\"IS1\",\"params\":{\"s\":\"tab\there\"}}",
	`{"name":5}`,
	`{"name":"IS1","params":[]}`,
	`[` + strings.Repeat(`[`, 20) + strings.Repeat(`]`, 21),
	`{"name":"IS1","params":{"id":` + strings.Repeat(`[`, 9998) + strings.Repeat(`]`, 9998) + `}}`,
	`{"name":"IS1","params":{"id":` + strings.Repeat(`[`, 9999) + strings.Repeat(`]`, 9999) + `}}`,
}

// FuzzLDBCRequest: the /ldbc scanner and encoding/json accept and reject the
// same bodies, and an accepted body names the same query and binds the same
// parameters, or fails to bind under both.
func FuzzLDBCRequest(f *testing.F) {
	for _, s := range ldbcSeeds {
		f.Add([]byte(s))
	}
	schema := []ldbcParam{{"date", vector.KindDate}, {"id", vector.KindInt64}, {"s", vector.KindString}}
	lq := &ldbcQuery{q: &queries.Query{Name: "Q"}, params: schema}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got ldbcBody
		got.buf.Write(body)
		scanErr := got.scan()
		want, refErr := refDecode(body)
		if (scanErr == nil) != (refErr == nil) {
			t.Fatalf("%q: scanner error %v, encoding/json error %v", body, scanErr, refErr)
		}
		if scanErr != nil {
			return
		}
		if string(got.name) != want.Name || got.hasParams != (want.Params != nil) {
			t.Fatalf("%q: scanned name %q params %v, encoding/json %q %v", body, got.name, got.hasParams, want.Name, want.Params)
		}
		if !got.hasParams {
			return
		}
		gotP, gotErr := lq.bind(&got)
		wantP, wantErr := refBind(schema, want.Params)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("%q: bound %v (%v), reference %v (%v)", body, gotP, gotErr, wantP, wantErr)
		}
	})
}
