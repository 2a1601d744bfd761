// Package lexer implements Concord's pattern and value extraction
// (§3.2). It separates each configuration line into a typed pattern — the
// line text with data values replaced by typed placeholders such as
// [num] or [ip4] — and an ordered parameter map binding fresh variable
// names (a, b, c, ...) to parsed values.
//
// Built-in token types cover the network data types from Table 1 of the
// paper (numbers, hex literals, booleans, MAC addresses, IPv4/IPv6
// addresses and prefixes). Users extend the lexer with custom regular
// expressions for domain objects such as interface names; user tokens
// take precedence over built-ins.
//
// Lex is a single left-to-right scan that merges one lazy cursor per
// spec. A cursor yields its spec's raw spans in the order the spec's
// regexp FindAllStringIndex over the whole line would. The eight
// built-in tokens find theirs with hand-written matchers (match.go),
// probed only at bytes in the token's first-byte class; their regexps
// in Builtin remain the specification and the reference the tests
// compare the matchers with. User tokens run their regexp's
// FindAllStringIndex once per line. Guards and Parse run only on the
// span the scan selects. The tests keep the find-all strategy — every
// spec's regexp FindAllStringIndex over the whole line followed by a
// global sort — as LexLinear, the reference FuzzLex compares Lex
// against. The memoization Cache (see LexCached) sits above Lex.
package lexer

import (
	"fmt"
	"regexp"
	"sync"

	"concord/internal/netdata"
)

// TokenSpec describes one token type: a name used in pattern
// placeholders, a regular expression locating candidate spans, and an
// optional parser that validates the span and produces a typed value.
// Parse failures make the lexer fall through to the next token type at
// the same position, so loose regexes are safe.
type TokenSpec struct {
	// Name appears in placeholders, e.g. "iface" renders as [iface].
	Name string
	// Pattern is an RE2 regular expression matching candidate spans.
	Pattern string
	// Parse validates a candidate span and converts it to a value. If
	// nil, every span is accepted as a netdata.Str.
	Parse func(string) (netdata.Value, error)
	// NoDigitBefore rejects spans immediately preceded by an ASCII
	// digit, preventing numeric tokens from starting mid-number.
	NoDigitBefore bool
	// WordBoundary rejects spans whose neighboring characters are
	// letters, digits, or underscores (used for keyword-like tokens such
	// as booleans).
	WordBoundary bool
}

type compiledSpec struct {
	TokenSpec
	re *regexp.Regexp
	// builtinMatcher is set for the built-in specs New appends itself;
	// user specs leave it zero and scan with re.
	builtinMatcher
}

// Lexer extracts typed patterns and parameter values from configuration
// lines. It is safe for concurrent use after construction.
type Lexer struct {
	specs []compiledSpec
}

// Builtin returns the built-in token specifications, ordered by matching
// precedence (most specific first). The set mirrors Table 1 of the
// paper; the hex token requires a 0x prefix so that leading-zero decimal
// numbers are not misclassified.
func Builtin() []TokenSpec {
	return []TokenSpec{
		{
			Name:    "pfx6",
			Pattern: `[0-9a-fA-F]{0,4}(?::[0-9a-fA-F]{0,4}){1,8}(?:\.[0-9]{1,3}){0,3}/[0-9]{1,3}`,
			Parse:   func(s string) (netdata.Value, error) { return netdata.ParsePrefix6(s) },
		},
		{
			Name:    "ip6",
			Pattern: `[0-9a-fA-F]{0,4}(?::[0-9a-fA-F]{0,4}){1,8}(?:\.[0-9]{1,3}){0,3}`,
			Parse:   func(s string) (netdata.Value, error) { return netdata.ParseIP6(s) },
		},
		{
			Name:    "mac",
			Pattern: `[0-9a-fA-F]{1,2}(?::[0-9a-fA-F]{1,2}){5}`,
			Parse:   func(s string) (netdata.Value, error) { return netdata.ParseMAC(s) },
		},
		{
			Name:          "pfx4",
			Pattern:       `[0-9]{1,3}(?:\.[0-9]{1,3}){3}/[0-9]{1,2}`,
			Parse:         func(s string) (netdata.Value, error) { return netdata.ParsePrefix4(s) },
			NoDigitBefore: true,
		},
		{
			Name:          "ip4",
			Pattern:       `[0-9]{1,3}(?:\.[0-9]{1,3}){3}`,
			Parse:         func(s string) (netdata.Value, error) { return netdata.ParseIP4(s) },
			NoDigitBefore: true,
		},
		{
			Name:          "hex",
			Pattern:       `0[xX][0-9a-fA-F]+`,
			Parse:         func(s string) (netdata.Value, error) { return netdata.ParseHex(s) },
			NoDigitBefore: true,
		},
		{
			Name:         "bool",
			Pattern:      `true|false`,
			Parse:        func(s string) (netdata.Value, error) { return netdata.ParseBool(s) },
			WordBoundary: true,
		},
		{
			Name:          "num",
			Pattern:       `[0-9]+`,
			Parse:         func(s string) (netdata.Value, error) { return netdata.ParseNum(s) },
			NoDigitBefore: true,
		},
	}
}

// New compiles a lexer with the given user token specifications, which
// take precedence over the built-ins. User specs are matched with their
// regexps; the built-in tail appended here is matched by hand-written
// matchers equivalent to Builtin's patterns.
func New(user ...TokenSpec) (*Lexer, error) {
	lx := &Lexer{}
	for _, spec := range user {
		cs, err := compileSpec(spec)
		if err != nil {
			return nil, err
		}
		lx.specs = append(lx.specs, cs)
	}
	for _, spec := range Builtin() {
		cs, err := compileSpec(spec)
		if err != nil {
			return nil, err
		}
		cs.builtinMatcher = builtinMatchers[spec.Name]
		lx.specs = append(lx.specs, cs)
	}
	return lx, nil
}

// compileSpec validates a spec and compiles its regexp.
func compileSpec(spec TokenSpec) (compiledSpec, error) {
	if spec.Name == "" {
		return compiledSpec{}, fmt.Errorf("lexer: token spec with empty name")
	}
	re, err := regexp.Compile(spec.Pattern)
	if err != nil {
		return compiledSpec{}, fmt.Errorf("lexer: token %s: %w", spec.Name, err)
	}
	return compiledSpec{TokenSpec: spec, re: re}, nil
}

// MustNew is New for known-good specs; it panics on error.
func MustNew(user ...TokenSpec) *Lexer {
	lx, err := New(user...)
	if err != nil {
		panic(err)
	}
	return lx
}

// Param is one extracted parameter of a lexed line.
type Param struct {
	// Name is the fresh variable ("a", "b", ...) in extraction order.
	Name string
	// Type is the token type name (e.g. "num", "ip4", "iface").
	Type string
	// Value is the parsed typed value.
	Value netdata.Value
}

// Lexed is the result of lexing one line of text.
type Lexed struct {
	// Untyped is the canonical pattern with anonymous placeholders,
	// e.g. "rd [ip4]:[num]". Two lines with equal Untyped (and equal
	// context) share a pattern.
	Untyped string
	// Display carries parameter names, e.g. "rd [a:ip4]:[b:num]".
	Display string
	// Params lists the extracted parameters in order of appearance.
	// Results returned through a Cache share this slice across callers;
	// treat it as immutable.
	Params []Param
}

type span struct {
	start, end int
	spec       int
	value      netdata.Value
}

// varName returns the i-th fresh variable name: a..z then v26, v27, ...
func varName(i int) string {
	if i < 26 {
		return string(rune('a' + i))
	}
	return fmt.Sprintf("v%d", i)
}

// MaxParamsPerLine bounds the parameters extracted from a single line.
// Real configuration commands carry a handful of values; the cap keeps
// adversarial inputs (megabyte single-line files) from exploding the
// relational candidate space downstream.
const MaxParamsPerLine = 64

// MaxLexLine is the lexer's own backstop on line length: Lex silently
// truncates longer inputs before matching. The format layer truncates
// at its configurable (much smaller) limit first and records a
// diagnostic; this constant only protects direct Lex callers from
// pathological single-line inputs.
const MaxLexLine = 1 << 20

// scratch is the pooled per-call working state; nothing in it escapes a Lex call (output strings and the
// Params slice are freshly built).
type scratch struct {
	cursors []cursor
	spans   []span
	untyped []byte
	display []byte
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// cursor is one spec's lazy iterator over the line's raw spans, in
// the order the spec's regexp FindAllStringIndex produces them. Spans
// are neither guarded nor parsed here: Lex accepts only the span it
// selects.
type cursor struct {
	start, end int
	done       bool
	// searchFrom is where a built-in's matcher resumes probing.
	searchFrom int
	// eager is a user spec's FindAllStringIndex, taken once per line;
	// eagerAt indexes its next span.
	eager   [][]int
	eagerAt int
}

// Lex extracts the typed pattern and parameters from a single line of
// text. Matching is greedy left to right; at each position the
// highest-precedence token whose span parses successfully wins.
//
// Lex is the optimized single-pass scan; LexLinear (linear_test.go) is
// the equivalent reference. Both resolve overlaps identically: earliest
// start first, then highest precedence (lowest spec index).
func (lx *Lexer) Lex(line string) Lexed {
	if len(line) > MaxLexLine {
		line = line[:MaxLexLine]
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	ns := len(lx.specs)
	if cap(sc.cursors) < ns {
		sc.cursors = make([]cursor, ns)
	}
	cursors := sc.cursors[:ns]
	for si := range cursors {
		c := &cursors[si]
		*c = cursor{}
		if spec := &lx.specs[si]; spec.match == nil {
			c.eager = spec.re.FindAllStringIndex(line, -1)
		}
		lx.advanceCursor(c, si, line)
	}
	chosen := sc.spans[:0]
	pos := 0
	for len(chosen) < MaxParamsPerLine {
		best := -1
		for si := range cursors {
			c := &cursors[si]
			// Spans overlapping already-chosen text are discarded per
			// spec, preserving each spec's own non-overlapping match
			// sequence.
			for !c.done && c.start < pos {
				lx.advanceCursor(c, si, line)
			}
			if c.done {
				continue
			}
			if best < 0 || c.start < cursors[best].start {
				best = si
			}
		}
		if best < 0 {
			break
		}
		// Only the earliest span is guarded and parsed. A rejected span
		// still consumes its text for its own spec (the cursor moves
		// past it), exactly as the reference drops it from that spec's
		// find-all list; the other specs select again.
		c := &cursors[best]
		if v, ok := lx.accept(&lx.specs[best], line, c.start, c.end); ok {
			chosen = append(chosen, span{start: c.start, end: c.end, spec: best, value: v})
			pos = c.end
		}
		lx.advanceCursor(c, best, line)
	}
	res := lx.render(line, chosen, sc)
	sc.spans = chosen[:0]
	return res
}

// advanceCursor moves a cursor to its spec's next non-empty span, or
// marks it done. A built-in probes its matcher at each byte of its
// first-byte class from where its last span ended; a user spec steps
// through its find-all list.
func (lx *Lexer) advanceCursor(c *cursor, si int, line string) {
	spec := &lx.specs[si]
	if spec.match == nil {
		for c.eagerAt < len(c.eager) {
			loc := c.eager[c.eagerAt]
			c.eagerAt++
			if loc[0] < loc[1] {
				c.start, c.end = loc[0], loc[1]
				return
			}
		}
		c.done = true
		return
	}
	for from := c.searchFrom; from < len(line); from++ {
		if !spec.first[line[from]] {
			continue
		}
		if end := spec.match(line, from); end >= 0 {
			c.start, c.end, c.searchFrom = from, end, end
			return
		}
	}
	c.done = true
}

// accept applies a spec's span guards and parser.
func (lx *Lexer) accept(spec *compiledSpec, line string, start, end int) (netdata.Value, bool) {
	if spec.NoDigitBefore && start > 0 && isDigit(line[start-1]) {
		return nil, false
	}
	if spec.WordBoundary {
		if start > 0 && isWordByte(line[start-1]) {
			return nil, false
		}
		if end < len(line) && isWordByte(line[end]) {
			return nil, false
		}
	}
	if spec.Parse != nil {
		v, err := spec.Parse(line[start:end])
		if err != nil {
			return nil, false
		}
		return v, true
	}
	return netdata.Str(line[start:end]), true
}

// render builds the Lexed result from resolved spans, writing the
// pattern strings through the pooled byte buffers.
func (lx *Lexer) render(line string, chosen []span, sc *scratch) Lexed {
	if len(chosen) == 0 {
		return Lexed{Untyped: line, Display: line}
	}
	untyped := sc.untyped[:0]
	display := sc.display[:0]
	params := make([]Param, 0, len(chosen))
	prev := 0
	for _, c := range chosen {
		name := varName(len(params))
		typ := lx.specs[c.spec].Name
		untyped = append(untyped, line[prev:c.start]...)
		display = append(display, line[prev:c.start]...)
		untyped = append(untyped, '[')
		untyped = append(untyped, typ...)
		untyped = append(untyped, ']')
		display = append(display, '[')
		display = append(display, name...)
		display = append(display, ':')
		display = append(display, typ...)
		display = append(display, ']')
		params = append(params, Param{Name: name, Type: typ, Value: c.value})
		prev = c.end
	}
	untyped = append(untyped, line[prev:]...)
	display = append(display, line[prev:]...)
	sc.untyped = untyped[:0]
	sc.display = display[:0]
	return Lexed{Untyped: string(untyped), Display: string(display), Params: params}
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

func isWordByte(b byte) bool {
	return b == '_' || isDigit(b) ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}
