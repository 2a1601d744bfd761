package lexer

import (
	"strings"
	"testing"
	"testing/quick"

	"concord/internal/netdata"
)

func lex(t *testing.T, line string) Lexed {
	t.Helper()
	return MustNew().Lex(line)
}

func TestLexIPAddress(t *testing.T) {
	got := lex(t, "ip address 10.14.14.34")
	if got.Untyped != "ip address [ip4]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
	if got.Display != "ip address [a:ip4]" {
		t.Errorf("Display = %q", got.Display)
	}
	if len(got.Params) != 1 || got.Params[0].Value.Key() != "ip4:10.14.14.34" {
		t.Errorf("Params = %+v", got.Params)
	}
}

func TestLexPrefixBeatsIP(t *testing.T) {
	got := lex(t, "seq 10 permit 10.14.14.34/32")
	if got.Untyped != "seq [num] permit [pfx4]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
	if len(got.Params) != 2 {
		t.Fatalf("Params = %+v", got.Params)
	}
	if got.Params[0].Value.Key() != "num:10" {
		t.Errorf("param a = %v", got.Params[0].Value)
	}
	if got.Params[1].Value.Key() != "pfx4:10.14.14.34/32" {
		t.Errorf("param b = %v", got.Params[1].Value)
	}
}

func TestLexMAC(t *testing.T) {
	got := lex(t, "route-target import 00:00:0c:d3:00:6e")
	if got.Untyped != "route-target import [mac]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
	if got.Params[0].Value.Kind() != netdata.KindMAC {
		t.Errorf("kind = %v", got.Params[0].Value.Kind())
	}
}

func TestLexRouteDistinguisher(t *testing.T) {
	// The paper's unconventional rd syntax: ip:num.
	got := lex(t, "rd 10.14.14.117:10251")
	if got.Untyped != "rd [ip4]:[num]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
	if got.Display != "rd [a:ip4]:[b:num]" {
		t.Errorf("Display = %q", got.Display)
	}
}

func TestLexTrailingNumberInWord(t *testing.T) {
	// Numbers embedded at the end of identifiers are extracted
	// (hostname DEV1 -> hostname DEV[num], Figure 3).
	got := lex(t, "hostname DEV1")
	if got.Untyped != "hostname DEV[num]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
	got = lex(t, "interface Port-Channel110")
	if got.Untyped != "interface Port-Channel[num]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
	if v, ok := got.Params[0].Value.(netdata.Num); !ok {
		t.Errorf("value = %#v", got.Params[0].Value)
	} else if i, _ := v.Int64(); i != 110 {
		t.Errorf("value = %v", v)
	}
}

func TestLexZero(t *testing.T) {
	got := lex(t, "interface Loopback0")
	if got.Untyped != "interface Loopback[num]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
}

func TestLexIPv6(t *testing.T) {
	// Note: the trailing digit of "ipv6" is itself extracted as a num,
	// exactly as the paper's lexer extracts the 1 from "DEV1".
	got := lex(t, "ipv6 address 2001:db8::1")
	if got.Untyped != "ipv[num] address [ip6]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
	got = lex(t, "ipv6 route 2001:db8::/32 null0")
	if got.Untyped != "ipv[num] route [pfx6] null[num]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
}

func TestLexBoolBoundary(t *testing.T) {
	got := lex(t, "shutdown false")
	if got.Untyped != "shutdown [bool]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
	got = lex(t, "set truex")
	if strings.Contains(got.Untyped, "[bool]") {
		t.Errorf("bool matched inside a word: %q", got.Untyped)
	}
}

func TestLexHex(t *testing.T) {
	got := lex(t, "key 0x1f2e")
	if got.Untyped != "key [hex]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
	// Leading-zero decimals are numbers, not hex.
	got = lex(t, "seq 010")
	if got.Untyped != "seq [num]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
}

func TestLexInvalidIPFallsBack(t *testing.T) {
	// 300.1.2.3 is not a valid IPv4 address; digits fall back to nums.
	got := lex(t, "x 300.1.2.3")
	if strings.Contains(got.Untyped, "[ip4]") {
		t.Errorf("invalid IP lexed as ip4: %q", got.Untyped)
	}
	if got.Untyped != "x [num].[num].[num].[num]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
}

func TestLexNoTokens(t *testing.T) {
	got := lex(t, "evpn ether-segment")
	if got.Untyped != "evpn ether-segment" || len(got.Params) != 0 {
		t.Errorf("got %q, %d params", got.Untyped, len(got.Params))
	}
}

func TestLexEmpty(t *testing.T) {
	got := lex(t, "")
	if got.Untyped != "" || len(got.Params) != 0 {
		t.Errorf("got %+v", got)
	}
}

func TestUserTokenPrecedence(t *testing.T) {
	lx := MustNew(TokenSpec{
		Name:    "iface",
		Pattern: `(?:[eE]t|ae)-?[0-9]+(?:/[0-9]+)*`,
	})
	got := lx.Lex("interface et-0/0/1 mtu 9000")
	if got.Untyped != "interface [iface] mtu [num]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
	if got.Params[0].Type != "iface" || got.Params[0].Value.Key() != "str:et-0/0/1" {
		t.Errorf("param = %+v", got.Params[0])
	}
}

func TestUserTokenParseFailureFallsThrough(t *testing.T) {
	lx := MustNew(TokenSpec{
		Name:    "even",
		Pattern: `[0-9]+`,
		Parse:   parseEven,
	})
	got := lx.Lex("vlan 250")
	if got.Untyped != "vlan [even]" {
		t.Errorf("even: %q", got.Untyped)
	}
	got = lx.Lex("vlan 251")
	if got.Untyped != "vlan [num]" {
		t.Errorf("odd should fall back to num: %q", got.Untyped)
	}
}

// TestLexParsesOnlySelectedSpans pins that guards and Parse run only on
// the span the scan selects: the user token's spans 0.0 and 0.1 lie
// inside the ip4 span chosen first, so its Parse is never called.
func TestLexParsesOnlySelectedSpans(t *testing.T) {
	calls := 0
	lx := MustNew(TokenSpec{
		Name:    "dotted",
		Pattern: `[0-9]\.[0-9]`,
		Parse: func(s string) (netdata.Value, error) {
			calls++
			return netdata.Str(s), nil
		},
	})
	if got := lx.Lex("ip address 10.0.0.1"); got.Untyped != "ip address [ip4]" {
		t.Errorf("Untyped = %q", got.Untyped)
	}
	if calls != 0 {
		t.Errorf("user Parse called %d times on spans inside the chosen ip4 span, want 0", calls)
	}
}

var errOdd = &oddError{}

type oddError struct{}

func (*oddError) Error() string { return "odd" }

func TestNewRejectsBadSpecs(t *testing.T) {
	if _, err := New(TokenSpec{Name: "", Pattern: "x"}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New(TokenSpec{Name: "bad", Pattern: "("}); err == nil {
		t.Error("invalid regex accepted")
	}
}

func TestVarNames(t *testing.T) {
	if varName(0) != "a" || varName(25) != "z" || varName(26) != "v26" {
		t.Error("varName sequence wrong")
	}
}

func TestLexFigure3Corpus(t *testing.T) {
	// End-to-end check of the Figure 1/3 lines.
	cases := map[string]string{
		"hostname DEV1":                         "hostname DEV[num]",
		"interface Loopback0":                   "interface Loopback[num]",
		"ip address 10.14.14.34":                "ip address [ip4]",
		"interface Port-Channel11":              "interface Port-Channel[num]",
		"evpn ether-segment":                    "evpn ether-segment",
		"route-target import 00:00:0c:d3:00:0b": "route-target import [mac]",
		"ip prefix-list loopback":               "ip prefix-list loopback",
		"seq 10 permit 10.14.14.34/32":          "seq [num] permit [pfx4]",
		"seq 20 permit 0.0.0.0/0":               "seq [num] permit [pfx4]",
		"router bgp 65015":                      "router bgp [num]",
		"maximum-paths 64 ecmp 64":              "maximum-paths [num] ecmp [num]",
		"vlan 251":                              "vlan [num]",
		"rd 10.14.14.117:10251":                 "rd [ip4]:[num]",
	}
	lx := MustNew()
	for in, want := range cases {
		if got := lx.Lex(in); got.Untyped != want {
			t.Errorf("Lex(%q) = %q, want %q", in, got.Untyped, want)
		}
	}
}

func TestLexNeverPanicsAndPreservesLiterals(t *testing.T) {
	// Property: lexing arbitrary text never panics, and substituting
	// parameter display strings back into the pattern placeholders
	// reconstructs a string whose literal (non-placeholder) content
	// matches the original length budget. We settle for the weaker
	// invariant that the number of placeholders equals len(Params).
	lx := MustNew()
	f := func(s string) bool {
		got := lx.Lex(s)
		return strings.Count(got.Display, ":") >= len(got.Params) &&
			countPlaceholders(got.Untyped) >= len(got.Params)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func countPlaceholders(pattern string) int {
	n := 0
	for _, typ := range []string{"num", "hex", "bool", "mac", "ip4", "ip6", "pfx4", "pfx6"} {
		n += strings.Count(pattern, "["+typ+"]")
	}
	return n
}

func TestLineParamIndex(t *testing.T) {
	l := Line{Params: []Param{{Name: "a"}, {Name: "b"}}}
	if l.ParamIndex("b") != 1 || l.ParamIndex("z") != -1 {
		t.Error("ParamIndex wrong")
	}
}
