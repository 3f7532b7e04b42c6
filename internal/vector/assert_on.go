//go:build gesassert

package vector

// assertEnabled mirrors core.AssertEnabled (-tags gesassert) for the checks
// that live below package core.
const assertEnabled = true
