package lexer_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"concord/internal/lexer"
	"concord/internal/synth"
)

// roleLines returns the distinct non-empty lines of the named synth
// roles at the given scale, in first-seen order, trimmed the way the
// format layer hands them to the lexer.
func roleLines(tb testing.TB, scale float64, names ...string) []string {
	tb.Helper()
	seen := make(map[string]bool)
	var out []string
	for _, name := range names {
		role, ok := synth.RoleByName(name, scale)
		if !ok {
			tb.Fatalf("unknown synth role %s", name)
		}
		for _, f := range synth.Generate(role).Configs {
			for _, line := range strings.Split(string(f.Text), "\n") {
				line = strings.TrimSpace(line)
				if line != "" && !seen[line] {
					seen[line] = true
					out = append(out, line)
				}
			}
		}
	}
	return out
}

// TestLexMatchesLinearOnSynthRoles runs every distinct line of every
// synth role at small scale through the scan and the find-all
// reference: the hand-written built-in matchers must lex the corpora
// the engine is tested and benchmarked on exactly as the regexps do,
// and so must a lexer carrying UserSpecs ahead of the built-ins.
func TestLexMatchesLinearOnSynthRoles(t *testing.T) {
	var names []string
	for _, r := range synth.Roles(0.05) {
		names = append(names, r.Name)
	}
	lines := roleLines(t, 0.05, names...)
	for _, lx := range []*lexer.Lexer{lexer.MustNew(), lexer.MustNew(lexer.UserSpecs()...)} {
		for _, line := range lines {
			if got, want := lx.Lex(line), lx.LexLinear(line); !reflect.DeepEqual(got, want) {
				t.Fatalf("Lex != LexLinear for %q:\n scan:   %+v\n linear: %+v", line, got, want)
			}
		}
	}
	if len(lines) < 1000 {
		t.Fatalf("only %d distinct lines across %d roles", len(lines), len(names))
	}
}

// lexSink keeps the benchmarks' results live.
var lexSink lexer.Lexed

// BenchmarkLex is the lexer's layer benchmark: uncached Lex over the
// distinct lines of a flat WAN role (W4) and an indented edge role (E2)
// at small scale, reported per line.
func BenchmarkLex(b *testing.B) {
	lines := roleLines(b, 0.1, "W4", "E2")
	lx := lexer.MustNew()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, line := range lines {
			lexSink = lx.Lex(line)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(len(lines))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/line")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/line")
	b.ReportMetric(float64(len(lines)), "lines")
}

// BenchmarkLexUserTokens is the layer benchmark for user tokens:
// uncached Lex over the distinct lines of W4, E2 and W2 at small scale
// with one user token ahead of the built-ins, reported per line. The
// selective token is the wan example's interface token; the
// unselective one starts a match at every letter.
func BenchmarkLexUserTokens(b *testing.B) {
	lines := roleLines(b, 0.1, "W4", "E2", "W2")
	specs := lexer.UserSpecs()
	for _, bc := range []struct {
		name string
		spec lexer.TokenSpec
	}{{"selective", specs[0]}, {"unselective", specs[1]}} {
		b.Run(bc.name, func(b *testing.B) {
			lx := lexer.MustNew(bc.spec)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, line := range lines {
					lexSink = lx.Lex(line)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(lines))), "ns/line")
		})
	}
}
