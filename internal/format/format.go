// Package format implements Concord's configuration format inference and
// context embedding (§3.1). Each input file is categorized as JSON,
// YAML, indentation-based, or flat text; hierarchical formats are then
// flattened into a sequence of lines carrying their parent path, so that
// a line such as "ip address 10.14.14.34" becomes
// "/interface Loopback[num]/ip address 10.14.14.34" and can be
// distinguished from the same command in other contexts.
//
// Context segments are the *untyped* patterns of the parent lines:
// parents never bind parameter values (paper §3.2), because any real
// relationship involving a parent is captured directly on the parent's
// own line.
package format

import (
	"encoding/json"
	"sort"
	"strings"

	"concord/internal/diag"
	"concord/internal/intern"
	"concord/internal/lexer"
	"concord/internal/telemetry"
)

// Category is an inferred configuration data format.
type Category string

// The recognized format categories.
const (
	JSON   Category = "json"
	YAML   Category = "yaml"
	Indent Category = "indent"
	Flat   Category = "flat"
)

// Detect infers the data format category of a configuration file. The
// heuristics mirror the paper's observation that despite thousands of
// configuration dialects, the number of ways to structure hierarchy is
// small: valid JSON documents, YAML-style "key:" documents, files that
// indent blocks, and everything else (flat).
func Detect(text []byte) Category {
	trimmed := strings.TrimSpace(string(text))
	if trimmed == "" {
		return Flat
	}
	if trimmed[0] == '{' || trimmed[0] == '[' {
		if json.Valid([]byte(trimmed)) {
			return JSON
		}
	}
	lines := strings.Split(trimmed, "\n")
	yamlish, indented, total := 0, 0, 0
	for _, l := range lines {
		t := strings.TrimRight(l, " \t\r")
		if strings.TrimSpace(t) == "" {
			continue
		}
		total++
		if len(t) > 0 && (t[0] == ' ' || t[0] == '\t') {
			indented++
		}
		s := strings.TrimSpace(t)
		if isYAMLish(s) {
			yamlish++
		}
	}
	if total == 0 {
		return Flat
	}
	if yamlish*2 >= total && indented > 0 {
		return YAML
	}
	if indented > 0 {
		return Indent
	}
	return Flat
}

// isYAMLish reports whether a trimmed line looks like YAML structure: a
// document marker, a list item, a bare "key:" header, or a single-word
// "key: value" mapping.
func isYAMLish(s string) bool {
	if s == "---" || strings.HasPrefix(s, "- ") || strings.HasSuffix(s, ":") {
		return true
	}
	key, _, ok := strings.Cut(s, ": ")
	if !ok || key == "" {
		return false
	}
	for i := 0; i < len(key); i++ {
		b := key[i]
		if !(b == '_' || b == '-' || b == '.' ||
			(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')) {
			return false
		}
	}
	return true
}

// Options controls processing.
type Options struct {
	// Embed enables context embedding for hierarchical formats. When
	// false every format is treated as flat, which is the "Baseline"
	// configuration of Figure 7.
	Embed bool
	// Limits bounds input processing (file size, line length, nesting
	// depth, lines per config); zero fields select the defaults.
	Limits Limits
	// Telemetry, when non-nil, receives per-format detection counters
	// (format.detect.<category>) so corpus composition shows up in the
	// engine's metrics report.
	Telemetry *telemetry.Recorder
	// Diagnostics, when non-nil, receives input-guard diagnostics:
	// skipped binary or oversized files, truncated lines, capped
	// nesting, exhausted line budgets.
	Diagnostics *diag.Collector
	// Cache, when non-nil, memoizes lexing across repeated lines. The
	// engine shares one cache across all files of a run; entries are
	// only valid for the lexer they were produced with.
	Cache *lexer.Cache
	// Interns, when non-nil, assigns dense PatternID values to emitted
	// lines and is recorded on the returned Config for downstream
	// consumers (mining, contract compilation).
	Interns *intern.Table
}

// lexRun bundles the per-file lexing state: the shared memoization
// cache and intern table, and the lexed-line count (flushed to
// telemetry once per file to avoid per-line counter traffic).
type lexRun struct {
	lx      *lexer.Lexer
	cache   *lexer.Cache
	interns *intern.Table
	lines   int64
}

func (r *lexRun) lex(s string) lexer.Lexed {
	r.lines++
	return r.lx.LexCached(r.cache, s)
}

// patternID interns a full pattern key, or reports 0 when interning is
// off (see lexer.Line.PatternID for how consumers treat such lines).
func (r *lexRun) patternID(pattern string) int32 {
	if r.interns == nil {
		return 0
	}
	return r.interns.ID(pattern)
}

// Process turns raw file text into a lexed configuration. It detects the
// format, performs context embedding when enabled, and lexes every line.
// Inputs violating Options.Limits degrade instead of exploding: files
// that are too large or binary return an empty config with Skipped set
// (and an error diagnostic); over-long lines are truncated, over-deep
// nesting capped, and over-budget lines dropped, each with a warning
// diagnostic.
func Process(name string, text []byte, lx *lexer.Lexer, opts Options) lexer.Config {
	lim := opts.Limits.WithDefaults()
	if len(text) > lim.MaxFileSize {
		opts.Diagnostics.Addf(diag.SevError, "process", name, 0,
			"file size %d exceeds limit %d; skipped", len(text), lim.MaxFileSize)
		opts.Telemetry.Add("guard.files_skipped", 1)
		return lexer.Config{Name: name, Skipped: true}
	}
	if looksBinary(text) {
		opts.Diagnostics.Addf(diag.SevError, "process", name, 0,
			"binary or non-UTF-8 content; skipped")
		opts.Telemetry.Add("guard.files_skipped", 1)
		return lexer.Config{Name: name, Skipped: true}
	}
	cat := Detect(text)
	opts.Telemetry.Add("format.detect."+string(cat), 1)
	if !opts.Embed {
		cat = Flat
	}
	r := &lexRun{lx: lx, cache: opts.Cache, interns: opts.Interns}
	var cfg lexer.Config
	switch cat {
	case JSON:
		var ok bool
		if cfg, ok = processJSON(name, text, r, lim, opts.Diagnostics); !ok {
			cfg = processIndent(name, text, r, false, lim, opts.Diagnostics)
		}
	case YAML:
		var ok bool
		if cfg, ok = processYAML(name, text, r, lim, opts.Diagnostics); !ok {
			cfg = processIndent(name, text, r, true, lim, opts.Diagnostics)
		}
	case Indent:
		cfg = processIndent(name, text, r, true, lim, opts.Diagnostics)
	default:
		cfg = processIndent(name, text, r, false, lim, opts.Diagnostics)
	}
	cfg.Interns = r.interns
	opts.Telemetry.Add("lex.lines_lexed", r.lines)
	return cfg
}

// stackEntry is a pending parent block during indent embedding.
type stackEntry struct {
	indent  int
	context string // untyped pattern of the parent line
}

// processIndent handles indentation-based and flat formats. With
// embed=false the parent stack is never populated, producing flat
// patterns prefixed with "/".
func processIndent(name string, text []byte, r *lexRun, embed bool, lim Limits, dc *diag.Collector) lexer.Config {
	g := newGuard(name, lim, dc)
	cfg := lexer.Config{Name: name}
	var stack []stackEntry
	// The joined context prefix is memoized across lines and rebuilt
	// only when the parent stack changes; sibling runs (the common
	// shape of network configs) share one prefix string.
	prefix, prefixDirty := "/", false
	lines := strings.Split(string(text), "\n")
	for i, raw := range lines {
		trimmedRight := strings.TrimRight(raw, " \t\r")
		content := strings.TrimSpace(trimmedRight)
		if content == "" {
			continue
		}
		cfg.SourceLines++
		if g.overBudget(len(cfg.Lines)) {
			continue
		}
		content = g.capLine(content)
		indent := indentWidth(trimmedRight)
		if embed {
			for len(stack) > 0 && stack[len(stack)-1].indent >= indent {
				stack = stack[:len(stack)-1]
				prefixDirty = true
			}
		}
		leaf := r.lex(content)
		if prefixDirty {
			var b strings.Builder
			for _, e := range stack {
				b.WriteByte('/')
				b.WriteString(e.context)
			}
			b.WriteByte('/')
			prefix = b.String()
			prefixDirty = false
		}
		line := lexer.Line{
			File:    name,
			Num:     i + 1,
			Raw:     content,
			Text:    prefix + content,
			Pattern: prefix + leaf.Untyped,
			Display: prefix + leaf.Display,
			Params:  leaf.Params,
		}
		line.PatternID = r.patternID(line.Pattern)
		cfg.Lines = append(cfg.Lines, line)
		if embed && !g.atDepthCap(len(stack)) {
			stack = append(stack, stackEntry{indent: indent, context: leaf.Untyped})
			prefixDirty = true
		}
	}
	g.flush()
	return cfg
}

// indentWidth computes the leading-whitespace width of a line with tabs
// expanded to four columns.
func indentWidth(s string) int {
	w := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ':
			w++
		case '\t':
			w += 4
		default:
			return w
		}
	}
	return w
}

// processJSON flattens a JSON document into one line per scalar leaf,
// with the object-key path as context. Array indices are deliberately
// omitted from paths so repeated elements share a pattern. Line numbers
// are recovered from decoder byte offsets. Documents nested deeper than
// the depth limit keep their deeper keys but stop extending the context
// path, and over-budget leaves are dropped; both degradations are
// summarized as diagnostics.
func processJSON(name string, text []byte, r *lexRun, lim Limits, dc *diag.Collector) (lexer.Config, bool) {
	g := newGuard(name, lim, dc)
	dec := json.NewDecoder(strings.NewReader(string(text)))
	dec.UseNumber()

	// Precompute newline offsets once so offset -> line recovery is a
	// binary search, not a rescan of the file per leaf.
	var newlines []int
	for i, b := range text {
		if b == '\n' {
			newlines = append(newlines, i)
		}
	}
	lineAt := func(off int64) int {
		return sort.SearchInts(newlines, int(off)) + 1
	}

	cfg := lexer.Config{Name: name}
	var path []string
	var walk func() bool
	emit := func(valueText string, off int64) {
		cfg.SourceLines++
		if g.overBudget(len(cfg.Lines)) {
			return
		}
		valueText = g.capLine(valueText)
		content := "/" + strings.Join(path, "/")
		if len(path) > 0 {
			content += " "
		}
		content += valueText
		leaf := r.lex(valueText)
		prefix := "/" + strings.Join(path, "/")
		if len(path) > 0 {
			prefix += " "
		}
		line := lexer.Line{
			File:    name,
			Num:     lineAt(off),
			Raw:     content,
			Text:    content,
			Pattern: prefix + leaf.Untyped,
			Display: prefix + leaf.Display,
			Params:  leaf.Params,
		}
		line.PatternID = r.patternID(line.Pattern)
		cfg.Lines = append(cfg.Lines, line)
	}
	walk = func() bool {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch t := tok.(type) {
		case json.Delim:
			switch t {
			case '{':
				for dec.More() {
					keyTok, err := dec.Token()
					if err != nil {
						return false
					}
					key, _ := keyTok.(string)
					pushed := !g.atDepthCap(len(path))
					if pushed {
						path = append(path, key)
					}
					if !walk() {
						return false
					}
					if pushed {
						path = path[:len(path)-1]
					}
				}
				_, err := dec.Token() // closing '}'
				return err == nil
			case '[':
				for dec.More() {
					if !walk() {
						return false
					}
				}
				_, err := dec.Token() // closing ']'
				return err == nil
			}
			return false
		case string:
			emit(t, dec.InputOffset())
			return true
		case json.Number:
			emit(t.String(), dec.InputOffset())
			return true
		case bool:
			if t {
				emit("true", dec.InputOffset())
			} else {
				emit("false", dec.InputOffset())
			}
			return true
		case nil:
			emit("null", dec.InputOffset())
			return true
		}
		return false
	}
	if !walk() {
		return lexer.Config{}, false
	}
	g.flush()
	return cfg, true
}
