package service

import (
	"testing"

	"ges/internal/exec"
	"ges/internal/ldbc"
)

// TestLDBCEngineFollowsOptions pins that /ldbc requests run on an engine
// with the server's pool and the configured parallel degree, like /query
// ones (gesd -parallel used to reach /query only).
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
	if q := s.newEngine(); eng.Parallel != 4 || eng.Pool != s.pool || eng.Mode != q.Mode || q.Pool != s.pool {
		t.Fatalf("/ldbc engine = {mode %v, parallel %d, pool %p}, /query engine = {mode %v, parallel %d, pool %p}, server pool %p",
			eng.Mode, eng.Parallel, eng.Pool, q.Mode, q.Parallel, q.Pool, s.pool)
	}
}
