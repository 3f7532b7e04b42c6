package service

import (
	"testing"

	"ges/internal/exec"
	"ges/internal/ldbc"
)

// TestLDBCEngineFollowsOptions pins that /ldbc and /query requests run on
// one engine, in the server's mode and with the server's pool.
func TestLDBCEngineFollowsOptions(t *testing.T) {
	ds, err := ldbc.Generate(ldbc.Config{SF: 0.03, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(ds, exec.ModeFused)
	eng, ok := s.runner.Engine.(*exec.Engine)
	if !ok {
		t.Fatalf("/ldbc engine is a %T", s.runner.Engine)
	}
	if eng != s.eng || eng.Pool != s.pool || eng.Mode != exec.ModeFused {
		t.Fatalf("/ldbc engine %p = {mode %v, pool %p}, /query engine %p, server pool %p",
			eng, eng.Mode, eng.Pool, s.eng, s.pool)
	}
}
