package lexer

import (
	"math/bits"
	"regexp/syntax"
	"unicode"
	"unicode/utf8"
)

// byteSet is a 256-bit membership bitmap over byte values.
type byteSet [4]uint64

func (s *byteSet) add(b byte)      { s[b>>6] |= 1 << (b & 63) }
func (s *byteSet) has(b byte) bool { return s[b>>6]&(1<<(b&63)) != 0 }
func (s *byteSet) addRange(lo, hi byte) {
	for b := int(lo); b <= int(hi); b++ {
		s.add(byte(b))
	}
}
func (s *byteSet) count() int {
	return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) +
		bits.OnesCount64(s[2]) + bits.OnesCount64(s[3])
}

// prefilter is the per-spec byte-class dispatch table driving the
// single-pass scan: a conservative superset of the bytes any match of
// the spec's pattern can start with. Positions whose byte is outside
// the set are skipped with zero regex work; plausible positions are
// probed with the spec's matcher (built-ins) or anchored regex.
type prefilter struct {
	first byteSet
	// usable reports whether the first-byte set is sound and selective
	// enough to drive anchored probing. When false the scan falls back
	// to unanchored leftmost search for this spec (identical results,
	// no per-position dispatch).
	usable bool
	// sliceSafe reports that the pattern contains no position anchors
	// (^, $, \A, \z, \b, \B), so matching against a line suffix is
	// equivalent to matching against the whole line at that offset.
	// Anchor-carrying user patterns are matched with the pre-scan
	// FindAll strategy to preserve exact semantics.
	sliceSafe bool
}

// maxUsableFirstBytes caps the selectivity threshold: a first-byte set
// covering nearly the whole byte space filters nothing, so the scan
// uses the unanchored path instead of probing every position.
const maxUsableFirstBytes = 200

// buildPrefilter analyzes a pattern's syntax tree. It never fails: an
// unanalyzable or unselective pattern yields an unusable prefilter and
// the scan degrades gracefully.
func buildPrefilter(pattern string) prefilter {
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		return prefilter{} // unreachable: regexp.Compile already succeeded
	}
	a := analysis{}
	canEmpty := a.walk(re)
	pf := prefilter{first: a.first, sliceSafe: !a.anchored}
	pf.usable = pf.sliceSafe && !a.unknown && !canEmpty &&
		pf.first.count() <= maxUsableFirstBytes
	return pf
}

type analysis struct {
	first    byteSet
	unknown  bool // saw an op we cannot reason about
	anchored bool // saw a position anchor or word boundary
}

// addRune marks the first byte of a rune's UTF-8 encoding. Runes at or
// above 0x80 conservatively mark the whole high-byte range: Go's
// regexp decodes invalid UTF-8 bytes as U+FFFD, so any byte >= 0x80
// can begin a rune that a wide character class matches.
func (a *analysis) addRune(r rune) {
	if r < utf8.RuneSelf {
		a.first.add(byte(r))
		return
	}
	a.first.addRange(0x80, 0xFF)
}

func (a *analysis) addFoldedRune(r rune) {
	a.addRune(r)
	for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
		a.addRune(f)
	}
}

// walk accumulates the bytes a match of re can start with and reports
// whether re can match the empty string. The set is conservative: it
// may contain bytes no match starts with, never the reverse.
func (a *analysis) walk(re *syntax.Regexp) (canEmpty bool) {
	switch re.Op {
	case syntax.OpNoMatch:
		return false
	case syntax.OpEmptyMatch:
		return true
	case syntax.OpLiteral:
		if len(re.Rune) == 0 {
			return true
		}
		if re.Flags&syntax.FoldCase != 0 {
			a.addFoldedRune(re.Rune[0])
		} else {
			a.addRune(re.Rune[0])
		}
		return false
	case syntax.OpCharClass:
		for i := 0; i+1 < len(re.Rune); i += 2 {
			lo, hi := re.Rune[i], re.Rune[i+1]
			if lo >= utf8.RuneSelf {
				a.first.addRange(0x80, 0xFF)
				continue
			}
			if hi >= utf8.RuneSelf {
				a.first.addRange(0x80, 0xFF)
				hi = utf8.RuneSelf - 1
			}
			a.first.addRange(byte(lo), byte(hi))
		}
		return len(re.Rune) == 0
	case syntax.OpAnyChar:
		a.first.addRange(0x00, 0xFF)
		return false
	case syntax.OpAnyCharNotNL:
		// Invalid UTF-8 decodes as U+FFFD, never '\n', so excluding the
		// newline byte is sound.
		a.first.addRange(0x00, '\n'-1)
		a.first.addRange('\n'+1, 0xFF)
		return false
	case syntax.OpBeginLine, syntax.OpEndLine, syntax.OpBeginText, syntax.OpEndText,
		syntax.OpWordBoundary, syntax.OpNoWordBoundary:
		a.anchored = true
		return true
	case syntax.OpCapture:
		return a.walk(re.Sub[0])
	case syntax.OpStar, syntax.OpQuest:
		a.walk(re.Sub[0])
		return true
	case syntax.OpPlus:
		return a.walk(re.Sub[0])
	case syntax.OpRepeat:
		sub := a.walk(re.Sub[0])
		return sub || re.Min == 0
	case syntax.OpConcat:
		empty := true
		for _, sub := range re.Sub {
			if !a.walk(sub) {
				empty = false
				// Later elements cannot contribute first bytes, but an
				// anchor or unknown op inside them still matters; scan the
				// whole concat for soundness flags only (idempotent for
				// the elements already walked).
				a.walkFlagsOnly(re.Sub)
				break
			}
		}
		return empty
	case syntax.OpAlternate:
		empty := false
		for _, sub := range re.Sub {
			if a.walk(sub) {
				empty = true
			}
		}
		return empty
	default:
		a.unknown = true
		return true
	}
}

// walkFlagsOnly scans subtrees only for soundness flags (anchors,
// unknown ops) without adding first bytes: once a concat element cannot
// match empty, later elements never start a match, but an anchor inside
// them still disqualifies suffix-sliced matching.
func (a *analysis) walkFlagsOnly(subs []*syntax.Regexp) {
	var scan func(re *syntax.Regexp)
	scan = func(re *syntax.Regexp) {
		switch re.Op {
		case syntax.OpBeginLine, syntax.OpEndLine, syntax.OpBeginText, syntax.OpEndText,
			syntax.OpWordBoundary, syntax.OpNoWordBoundary:
			a.anchored = true
		case syntax.OpLiteral, syntax.OpCharClass, syntax.OpAnyChar, syntax.OpAnyCharNotNL,
			syntax.OpEmptyMatch, syntax.OpNoMatch:
		case syntax.OpCapture, syntax.OpStar, syntax.OpQuest, syntax.OpPlus,
			syntax.OpRepeat, syntax.OpConcat, syntax.OpAlternate:
			for _, sub := range re.Sub {
				scan(sub)
			}
		default:
			a.unknown = true
		}
	}
	for _, sub := range subs {
		scan(sub)
	}
}
