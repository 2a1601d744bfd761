package lexer

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzLex cross-checks the three lexing entry points against each
// other and validates the placeholder structure of the output:
//
//   - Lex (the single-pass scan, built-ins probed by hand-written
//     matchers) must agree exactly with LexLinear (every spec's regexp
//     find-all + sort) — the differential oracle for the scan and for
//     the matchers against the Builtin regexps they replace. A second
//     lexer carrying UserSpecs ahead of the built-ins is held to the
//     same reference.
//   - LexCached must agree with Lex on both the filling call (miss)
//     and the repeat call (hit), so cached results are
//     indistinguishable from fresh ones.
//   - Untyped and Display must round-trip: Display is Untyped with
//     each placeholder "[type]" widened to "[name:type]" in parameter
//     order, with all literal bytes (including literal brackets in
//     the input) identical between the two.
func FuzzLex(f *testing.F) {
	seeds := []string{
		"",
		"interface GigabitEthernet0/0/1",
		"ip address 192.168.1.1 255.255.255.0",
		"rd 10.0.0.1:65001",
		"neighbor 2001:db8::1 remote-as 65000",
		"mac 00:1a:2b:3c:4d:5e vlan 120",
		"route 10.0.0.0/8 via 10.1.1.1",
		"snmp user 0x8f3a enable true",
		"x [num] 5",   // literal placeholder text colliding with a real one
		"a [a:num] 7", // literal display-style placeholder
		"[[num]]",     // nested brackets
		"num 18446744073709551615 -42 3.14",
		"\x00\xff\xfe broken \x80 utf8",
		strings.Repeat("10.0.0.1 ", 40),
		// Backtracking edges of the built-in patterns: runs longer than
		// a group admits, too many groups, a prefix length too long, a
		// mandatory part missing, adjacent keywords.
		"12345:6",
		"1.2.3.4567",
		"1.2.3.4/123",
		"a:b.1.2.3.4/5",
		"::1.2.3.4/64",
		"aa:bb:cc:dd:ee:ff:1",
		"0x",
		"0xg",
		"truefalse",
		// User-spec edges: the selective and unselective interface
		// tokens, \b-bounded words, odd and even numbers, two-digit
		// numbers inside and outside words.
		"interface et-0/0/1 unit 11",
		"set interfaces xe-1/2/3 ge-0/0/12/4",
		"interface GigabitEthernet0/0/1.100",
		"ipv6 null0 vlan251 a12 b13x",
		"seq 13 permit 11.0.0.1/32 rd 12.3.4.5:77",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	lx := MustNew()
	ux := MustNew(UserSpecs()...)
	cache := NewCache(1 << 12)

	f.Fuzz(func(t *testing.T, line string) {
		if len(line) > MaxLexLine {
			line = line[:MaxLexLine]
		}
		got := lx.Lex(line)
		lin := lx.LexLinear(line)
		if !reflect.DeepEqual(got, lin) {
			t.Fatalf("Lex != LexLinear for %q:\n scan:   %+v\n linear: %+v", line, got, lin)
		}
		if got, lin := ux.Lex(line), ux.LexLinear(line); !reflect.DeepEqual(got, lin) {
			t.Fatalf("user specs: Lex != LexLinear for %q:\n scan:   %+v\n linear: %+v", line, got, lin)
		}
		miss := lx.LexCached(cache, line)
		if !reflect.DeepEqual(got, miss) {
			t.Fatalf("LexCached (fill) != Lex for %q:\n cached: %+v\n fresh:  %+v", line, miss, got)
		}
		hit := lx.LexCached(cache, line)
		if !reflect.DeepEqual(got, hit) {
			t.Fatalf("LexCached (hit) != Lex for %q:\n cached: %+v\n fresh:  %+v", line, hit, got)
		}
		if !roundTrips(got.Untyped, got.Display, got.Params) {
			t.Fatalf("Untyped/Display placeholder mismatch for %q:\n untyped: %q\n display: %q\n params:  %+v",
				line, got.Untyped, got.Display, got.Params)
		}
		if len(got.Params) == 0 && (got.Untyped != line || got.Display != line) {
			t.Fatalf("no params but output differs from input for %q: %+v", line, got)
		}
	})
}

// roundTrips reports whether d equals u with each "[type]" placeholder
// (one per params entry, in order) widened to "[name:type]". Literal
// input bytes that happen to look like placeholders make the greedy
// alignment ambiguous, so this is a memoized two-pointer match: at
// state (i, k), u[i:] must align with d[i+delta(k):] while consuming
// params[k:], where delta(k) is the extra display width ("name:") of
// the first k placeholders.
func roundTrips(u, d string, params []Param) bool {
	delta := make([]int, len(params)+1)
	for k, p := range params {
		delta[k+1] = delta[k] + len(p.Name) + 1
	}
	type state struct{ i, k int }
	memo := make(map[state]bool)
	var match func(i, k int) bool
	match = func(i, k int) bool {
		st := state{i, k}
		if v, ok := memo[st]; ok {
			return v
		}
		memo[st] = false // cycle guard; overwritten below
		j := i + delta[k]
		var res bool
		if i == len(u) {
			res = k == len(params) && j == len(d)
		} else {
			if k < len(params) {
				up := "[" + params[k].Type + "]"
				dp := "[" + params[k].Name + ":" + params[k].Type + "]"
				if strings.HasPrefix(u[i:], up) && strings.HasPrefix(d[j:], dp) {
					res = match(i+len(up), k+1)
				}
			}
			if !res && j < len(d) && u[i] == d[j] {
				res = match(i+1, k)
			}
		}
		memo[st] = res
		return res
	}
	return match(0, 0)
}
