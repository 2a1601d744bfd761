package lexer

import (
	"math/rand"
	"regexp"
	"testing"
)

// oracle pairs a built-in matcher and first-byte class with its spec's
// regexp, prefixed with \A so it matches only at the probed offset.
type oracle struct {
	name  string
	match matcher
	first *byteClass
	re    *regexp.Regexp
}

func builtinOracles(t *testing.T) []oracle {
	t.Helper()
	var out []oracle
	for _, spec := range Builtin() {
		m, ok := builtinMatchers[spec.Name]
		if !ok {
			t.Fatalf("built-in %s has no matcher", spec.Name)
		}
		out = append(out, oracle{spec.Name, m.match, m.first, regexp.MustCompile(`\A(?:` + spec.Pattern + `)`)})
	}
	if len(builtinMatchers) != len(out) {
		t.Fatalf("%d matchers for %d built-ins", len(builtinMatchers), len(out))
	}
	return out
}

// compareAt fails the test when the matcher and its regexp disagree on
// a match starting at s[at].
func (o oracle) compareAt(t *testing.T, s string, at int) {
	want := -1
	if loc := o.re.FindStringIndex(s[at:]); loc != nil {
		want = at + loc[1]
	}
	if got := o.match(s, at); got != want {
		t.Fatalf("%s at %d of %q: matcher end %d, regexp end %d", o.name, at, s, got, want)
	}
}

// TestBuiltinMatchersMatchRegexp is the matchers' oracle: on every
// string up to length 6 over an alphabet that reaches each pattern's
// separators, classes and literals, and on seeded random strings up to
// length 40, each matcher must return exactly the end offset of Go's
// leftmost-first \A-prefixed match of its Builtin pattern. Every suffix of
// an enumerated string is itself enumerated, so probing offset 0 covers
// every offset; random strings are probed at a random offset or at 0.
//
// The matchers and regexps are pure and run on one goroutine, so a
// -race binary (or -short) runs a reduced oracle: strings up to length
// 5 and 2^14 random strings of each shape instead of length 6 and 2^20.
// Instrumented regexp calls would otherwise take two minutes.
func TestBuiltinMatchersMatchRegexp(t *testing.T) {
	oracles := builtinOracles(t)
	const exhaustive = "09aF:./xt"
	maxLen, n := 6, 1<<20
	if testing.Short() || raceBuild {
		maxLen, n = 5, 1<<14
	}
	buf := make([]byte, 0, maxLen)
	var enumerate func()
	enumerate = func() {
		s := string(buf)
		for _, o := range oracles {
			o.compareAt(t, s, 0)
		}
		if len(buf) == cap(buf) {
			return
		}
		for i := 0; i < len(exhaustive); i++ {
			buf = append(buf, exhaustive[i])
			enumerate()
			buf = buf[:len(buf)-1]
		}
	}
	enumerate()

	// Random strings come in two shapes: bytes drawn from an alphabet,
	// and runs of 0..5 hex or decimal digits joined by separators, which
	// reach the longer shapes (eight ip6 groups, six mac groups, a
	// prefix after three dotted quads) that uniform bytes rarely form.
	const alphabet = "0123456789abfAF:./xX trueflse"
	const runBytes, seps = "0123456789abcdefABCDEF", "::::....//x "
	rng := rand.New(rand.NewSource(1))
	line := make([]byte, 0, 64)
	for i := 0; i < 2*n; i++ {
		s := line[:0]
		if i < n {
			for k := rng.Intn(41); k > 0; k-- {
				s = append(s, alphabet[rng.Intn(len(alphabet))])
			}
		} else {
			for len(s) < 40 && rng.Intn(12) > 0 {
				digits := len(runBytes)
				if rng.Intn(2) == 0 {
					digits = 10
				}
				for k := rng.Intn(6); k > 0; k-- {
					s = append(s, runBytes[rng.Intn(digits)])
				}
				s = append(s, seps[rng.Intn(len(seps))])
			}
		}
		str := string(s)
		at := 0
		if len(str) > 0 {
			at = rng.Intn(len(str))
			if rng.Intn(2) == 0 {
				at = 0
			}
		}
		for _, o := range oracles {
			o.compareAt(t, str, at)
		}
	}
}

// TestBuiltinFirstBytes shows that the scan's first-byte skip loses no
// match: no string whose first byte is outside a built-in's first-byte
// class is matched by its \A-prefixed Builtin regexp. It covers every
// string up to length 5 over TestBuiltinMatchersMatchRegexp's alphabet,
// and every byte value followed by each string up to length 2 over it.
func TestBuiltinFirstBytes(t *testing.T) {
	oracles := builtinOracles(t)
	const exhaustive = "09aF:./xt"
	check := func(s string) {
		for _, o := range oracles {
			if !o.first[s[0]] && o.re.MatchString(s) {
				t.Fatalf("%s matches %q, whose first byte is outside its first-byte class", o.name, s)
			}
		}
	}
	var enumerate func(prefix string, depth int, visit func(string))
	enumerate = func(prefix string, depth int, visit func(string)) {
		visit(prefix)
		if depth == 0 {
			return
		}
		for i := 0; i < len(exhaustive); i++ {
			enumerate(prefix+exhaustive[i:i+1], depth-1, visit)
		}
	}
	for i := 0; i < len(exhaustive); i++ {
		enumerate(exhaustive[i:i+1], 4, check)
	}
	for b := 0; b < 256; b++ {
		enumerate(string([]byte{byte(b)}), 2, check)
	}
}

// TestBuiltinSpecsUseMatchers pins how New compiles specs: the built-in
// tail it appends carries each built-in's matcher and first-byte
// class, while user specs, a copy of a Builtin spec included, carry
// neither and scan with their regexp.
func TestBuiltinSpecsUseMatchers(t *testing.T) {
	user := Builtin()[0]
	user.Name = "v6net"
	lx := MustNew(user)
	for i, cs := range lx.specs {
		if i == 0 {
			if cs.match != nil || cs.first != nil {
				t.Errorf("user spec %s: match set %v, first-byte class set %v", cs.Name, cs.match != nil, cs.first != nil)
			}
			continue
		}
		if cs.match == nil || cs.first == nil {
			t.Errorf("built-in %s: match set %v, first-byte class set %v", cs.Name, cs.match != nil, cs.first != nil)
		}
	}
	line := "route 2001:db8::/32 via fe80::1"
	if got, want := lx.Lex(line), lx.LexLinear(line); got.Untyped != "route [v6net] via [ip6]" || got.Untyped != want.Untyped {
		t.Errorf("Lex = %q, LexLinear = %q", got.Untyped, want.Untyped)
	}
}
