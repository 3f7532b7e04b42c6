//go:build !gesassert

package vector

const assertEnabled = false
