//go:build !race

package lexer

// raceBuild reports a -race test binary.
const raceBuild = false
