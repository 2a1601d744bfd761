package lexer

import "strings"

// matcher is a built-in token's hand-written matcher: it returns the
// end offset of the match Go's leftmost-first \A(?:Pattern) finds in
// line[at:], or -1 when there is none.
//
// Each built-in pattern is literals (0x, true|false, whose alternatives
// differ in their first byte) and runs over one byte class (hex or
// decimal digits) separated by literal bytes (':', '.', '/') that the
// classes exclude. A backtracking engine prefers the longest run and
// one more repetition; taking a shorter run leaves a class byte where
// the continuation needs a separator or the end of the pattern, and
// stopping a repetition early leaves that repetition's separator where
// the continuation needs another one, so no backtrack ever succeeds
// where the greedy choice failed. The matchers therefore take every run
// and repetition greedily in one forward pass and check the mandatory
// parts once. The regexps in Builtin stay the specification;
// TestBuiltinMatchersMatchRegexp compares each matcher with its
// \A-prefixed regexp.
type matcher func(line string, at int) int

// builtinMatcher is a built-in token's matcher and the class of bytes
// a match can start with; the scan probes the matcher only at bytes in
// the class.
type builtinMatcher struct {
	match matcher
	first *byteClass
}

// builtinMatchers holds the matcher of each Builtin spec, by name.
var builtinMatchers = map[string]builtinMatcher{
	"pfx6": {matchPfx6, ip6First},
	"ip6":  {matchIP6, ip6First},
	"mac":  {matchMAC, hexDigits},
	"pfx4": {matchPfx4, decDigits},
	"ip4":  {matchIP4, decDigits},
	"hex":  {matchHex, classOf("0")},
	"bool": {matchBool, classOf("tf")},
	"num":  {matchNum, decDigits},
}

// byteClass is a membership table over byte values.
type byteClass [256]bool

// The matchers' byte classes. ip6First is where an ip6 or pfx6 match
// starts: a hex digit, or the ':' of an empty first group.
var (
	decDigits = classOf("0123456789")
	hexDigits = classOf("0123456789abcdefABCDEF")
	ip6First  = classOf("0123456789abcdefABCDEF:")
)

// classOf returns the class of the given bytes.
func classOf(bytes string) *byteClass {
	var c byteClass
	for i := 0; i < len(bytes); i++ {
		c[bytes[i]] = true
	}
	return &c
}

// runEnd returns the end of the run of at most max bytes of cls
// starting at line[i].
func runEnd(line string, i, max int, cls *byteClass) int {
	end := min(len(line), i+max)
	for i < end && cls[line[i]] {
		i++
	}
	return i
}

// groupsEnd matches n runs of 1..width bytes of cls joined by sep,
// e.g. [0-9]{1,3}(?:\.[0-9]{1,3}){3} for n=4, sep='.', width=3.
func groupsEnd(line string, at, n int, sep byte, width int, cls *byteClass) int {
	i := at
	for g := 0; g < n; g++ {
		if g > 0 {
			if i >= len(line) || line[i] != sep {
				return -1
			}
			i++
		}
		j := runEnd(line, i, width, cls)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// slashEnd matches /[0-9]{1,width} at line[i]; a negative i (an earlier
// part failed) passes through.
func slashEnd(line string, i, width int) int {
	if i < 0 || i+1 >= len(line) || line[i] != '/' || !decDigits[line[i+1]] {
		return -1
	}
	return runEnd(line, i+1, width, decDigits)
}

// matchIP6 matches [0-9a-fA-F]{0,4}(?::[0-9a-fA-F]{0,4}){1,8}(?:\.[0-9]{1,3}){0,3}.
func matchIP6(line string, at int) int {
	i := runEnd(line, at, 4, hexDigits)
	groups := 0
	for ; groups < 8 && i < len(line) && line[i] == ':'; groups++ {
		i = runEnd(line, i+1, 4, hexDigits)
	}
	if groups == 0 {
		return -1
	}
	for dots := 0; dots < 3 && i+1 < len(line) && line[i] == '.' && decDigits[line[i+1]]; dots++ {
		i = runEnd(line, i+1, 3, decDigits)
	}
	return i
}

// matchPfx6 matches the ip6 pattern followed by /[0-9]{1,3}.
func matchPfx6(line string, at int) int { return slashEnd(line, matchIP6(line, at), 3) }

// matchMAC matches [0-9a-fA-F]{1,2}(?::[0-9a-fA-F]{1,2}){5}.
func matchMAC(line string, at int) int { return groupsEnd(line, at, 6, ':', 2, hexDigits) }

// matchIP4 matches [0-9]{1,3}(?:\.[0-9]{1,3}){3}.
func matchIP4(line string, at int) int { return groupsEnd(line, at, 4, '.', 3, decDigits) }

// matchPfx4 matches the ip4 pattern followed by /[0-9]{1,2}.
func matchPfx4(line string, at int) int { return slashEnd(line, matchIP4(line, at), 2) }

// matchHex matches 0[xX][0-9a-fA-F]+.
func matchHex(line string, at int) int {
	if at+2 >= len(line) || line[at] != '0' || (line[at+1] != 'x' && line[at+1] != 'X') {
		return -1
	}
	if i := runEnd(line, at+2, len(line), hexDigits); i > at+2 {
		return i
	}
	return -1
}

// matchBool matches true|false.
func matchBool(line string, at int) int {
	switch rest := line[at:]; {
	case strings.HasPrefix(rest, "true"):
		return at + 4
	case strings.HasPrefix(rest, "false"):
		return at + 5
	}
	return -1
}

// matchNum matches [0-9]+.
func matchNum(line string, at int) int {
	if i := runEnd(line, at, len(line), decDigits); i > at {
		return i
	}
	return -1
}
