package service

import (
	"testing"

	"ges/internal/exec"
	"ges/internal/ldbc"
)

// TestLDBCEngineFollowsOptions pins that /ldbc and /query requests run on
// one engine, with the server's pool and the configured parallel degree
// (gesd -parallel used to reach /query only).
func TestLDBCEngineFollowsOptions(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 0.03, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWith(ds, exec.ModeFused, Options{Parallel: 4})
	eng, ok := s.runner.Engine.(*exec.Engine)
	if !ok {
		t.Fatalf("/ldbc engine is a %T", s.runner.Engine)
	}
	if eng != s.eng || eng.Parallel != 4 || eng.Pool != s.pool || eng.Mode != exec.ModeFused {
		t.Fatalf("/ldbc engine %p = {mode %v, parallel %d, pool %p}, /query engine %p, server pool %p",
			eng, eng.Mode, eng.Parallel, eng.Pool, s.eng, s.pool)
	}
}
