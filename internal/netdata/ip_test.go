package netdata

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseIP4(t *testing.T) {
	ip, err := ParseIP4("10.14.14.34")
	if err != nil {
		t.Fatalf("ParseIP4: %v", err)
	}
	if ip.String() != "10.14.14.34" {
		t.Errorf("String() = %q", ip.String())
	}
	if ip.Is6() {
		t.Error("Is6() = true for IPv4")
	}
	if o, ok := ip.Octet(3); !ok || o != 14 {
		t.Errorf("Octet(3) = %d, %v", o, ok)
	}
	if _, ok := ip.Octet(5); ok {
		t.Error("Octet(5) succeeded")
	}
}

func TestParseIP4Invalid(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.x", "01234.1.1.1"} {
		if _, err := ParseIP4(s); err == nil {
			t.Errorf("ParseIP4(%q) succeeded, want error", s)
		}
	}
}

func TestParseIP6(t *testing.T) {
	cases := map[string]string{
		"2001:db8:0:0:0:0:0:1": "2001:db8::1",
		"2001:db8::1":          "2001:db8::1",
		"::":                   "::",
		"::1":                  "::1",
		"fe80::":               "fe80::",
		"::ffff:10.0.0.1":      "::ffff:a00:1",
		"1:2:3:4:5:6:7:8":      "1:2:3:4:5:6:7:8",
		"2001:DB8::A":          "2001:db8::a",
	}
	for in, want := range cases {
		ip, err := ParseIP6(in)
		if err != nil {
			t.Errorf("ParseIP6(%q): %v", in, err)
			continue
		}
		if ip.String() != want {
			t.Errorf("ParseIP6(%q).String() = %q, want %q", in, ip.String(), want)
		}
		if !ip.Is6() {
			t.Errorf("ParseIP6(%q).Is6() = false", in)
		}
	}
}

func TestParseIP6Invalid(t *testing.T) {
	for _, s := range []string{
		"", ":", "1:2:3:4:5:6:7", "1:2:3:4:5:6:7:8:9", "::1::2",
		"12345::", "g::1", "00:00:0c:d3:00:6e", "1:2:3:4:5:6:7:8::",
	} {
		if _, err := ParseIP6(s); err == nil {
			t.Errorf("ParseIP6(%q) succeeded, want error", s)
		}
	}
}

func TestIP6RoundTrip(t *testing.T) {
	// Canonical form must reparse to an identical value.
	f := func(raw [16]byte) bool {
		ip := IP{b: raw, v6: true}
		back, err := ParseIP6(ip.String())
		if err != nil {
			return false
		}
		return back == ip
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParsePrefix4(t *testing.T) {
	p, err := ParsePrefix4("10.14.14.34/32")
	if err != nil {
		t.Fatalf("ParsePrefix4: %v", err)
	}
	if p.String() != "10.14.14.34/32" {
		t.Errorf("String() = %q", p.String())
	}
	ip, _ := ParseIP4("10.14.14.34")
	if !p.ContainsIP(ip) {
		t.Error("/32 does not contain its own address")
	}
	other, _ := ParseIP4("10.14.14.35")
	if p.ContainsIP(other) {
		t.Error("/32 contains a different address")
	}
}

func TestPrefixKeepsHostBits(t *testing.T) {
	// Interface addresses written as address/length keep their host
	// bits: 10.14.14.34/24 and 10.14.14.99/24 are distinct values even
	// though they denote the same network.
	p, err := ParsePrefix4("10.14.14.34/24")
	if err != nil {
		t.Fatalf("ParsePrefix4: %v", err)
	}
	if p.String() != "10.14.14.34/24" {
		t.Errorf("host bits lost: %q", p.String())
	}
	q, _ := ParsePrefix4("10.14.14.99/24")
	if p.Key() == q.Key() {
		t.Error("distinct interface addresses share a key")
	}
	// Containment still works off the network part only.
	ip, _ := ParseIP4("10.14.14.200")
	if !p.ContainsIP(ip) {
		t.Error("containment should ignore host bits")
	}
}

func TestDefaultRouteContainsEverything(t *testing.T) {
	p, _ := ParsePrefix4("0.0.0.0/0")
	for _, s := range []string{"1.2.3.4", "255.255.255.255", "0.0.0.0"} {
		ip, _ := ParseIP4(s)
		if !p.ContainsIP(ip) {
			t.Errorf("0.0.0.0/0 does not contain %s", s)
		}
	}
}

func TestContainsPrefix(t *testing.T) {
	sup, _ := ParsePrefix4("10.0.0.0/8")
	sub, _ := ParsePrefix4("10.14.0.0/16")
	if !sup.ContainsPrefix(sub) {
		t.Error("10.0.0.0/8 should contain 10.14.0.0/16")
	}
	if sub.ContainsPrefix(sup) {
		t.Error("10.14.0.0/16 should not contain 10.0.0.0/8")
	}
	if !sup.ContainsPrefix(sup) {
		t.Error("prefix should contain itself")
	}
	v6, _ := ParsePrefix6("2001:db8::/32")
	if sup.ContainsPrefix(v6) || v6.ContainsPrefix(sup) {
		t.Error("cross-family containment must be false")
	}
}

func TestParsePrefix6(t *testing.T) {
	p, err := ParsePrefix6("2001:db8::/32")
	if err != nil {
		t.Fatalf("ParsePrefix6: %v", err)
	}
	if p.Bits() != 128 || p.Len() != 32 {
		t.Errorf("Bits/Len = %d/%d", p.Bits(), p.Len())
	}
	ip, _ := ParseIP6("2001:db8::42")
	if !p.ContainsIP(ip) {
		t.Error("prefix does not contain member address")
	}
}

func TestPrefixInvalid(t *testing.T) {
	for _, s := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/x", "10.0.0.0/-1", "zz/8"} {
		if _, err := ParsePrefix4(s); err == nil {
			t.Errorf("ParsePrefix4(%q) succeeded, want error", s)
		}
	}
	if _, err := ParsePrefix6("::/129"); err == nil {
		t.Error("ParsePrefix6(::/129) succeeded, want error")
	}
}

func TestContainmentConsistentWithBits(t *testing.T) {
	// Property: containment computed bit-by-bit matches an independent
	// mask-based computation for random IPv4 prefixes.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		addr := rng.Uint32()
		length := rng.Intn(33)
		ip := IP{b: [16]byte{byte(addr >> 24), byte(addr >> 16), byte(addr >> 8), byte(addr)}}
		p, err := NewPrefix(ip, length)
		if err != nil {
			t.Fatalf("NewPrefix: %v", err)
		}
		probe := rng.Uint32()
		probeIP := IP{b: [16]byte{byte(probe >> 24), byte(probe >> 16), byte(probe >> 8), byte(probe)}}
		var mask uint32
		if length > 0 {
			mask = ^uint32(0) << (32 - length)
		}
		want := addr&mask == probe&mask
		if got := p.ContainsIP(probeIP); got != want {
			t.Fatalf("ContainsIP(%s in %s) = %v, want %v", probeIP, p, got, want)
		}
	}
}

func TestParseMAC(t *testing.T) {
	m, err := ParseMAC("00:00:0c:d3:00:6e")
	if err != nil {
		t.Fatalf("ParseMAC: %v", err)
	}
	if m.String() != "00:00:0c:d3:00:6e" {
		t.Errorf("String() = %q", m.String())
	}
	if seg, ok := m.Segment(6); !ok || seg != "6e" {
		t.Errorf("Segment(6) = %q, %v; want 6e", seg, ok)
	}
	if seg, ok := m.Segment(1); !ok || seg != "0" {
		t.Errorf("Segment(1) = %q; want 0 (minimal hex)", seg)
	}
	if _, ok := m.Segment(7); ok {
		t.Error("Segment(7) succeeded")
	}
}

func TestParseMACInvalid(t *testing.T) {
	for _, s := range []string{"", "00:00:0c:d3:00", "00:00:0c:d3:00:6e:ff", "zz:00:0c:d3:00:6e", "000:00:0c:d3:00:6e"} {
		if _, err := ParseMAC(s); err == nil {
			t.Errorf("ParseMAC(%q) succeeded, want error", s)
		}
	}
}

func TestHexContractExample(t *testing.T) {
	// The Figure 1 contract: hex(110) == segment(00:00:0c:d3:00:6e, 6).
	n := NewNum(110)
	m, _ := ParseMAC("00:00:0c:d3:00:6e")
	seg, _ := m.Segment(6)
	if n.Hex() != seg {
		t.Errorf("hex(110) = %q, segment = %q; want equal", n.Hex(), seg)
	}
}

func TestByteAccessors(t *testing.T) {
	ip4, _ := ParseIP4("1.2.3.4")
	if got := ip4.Bytes(); len(got) != 4 || got[3] != 4 {
		t.Errorf("v4 Bytes = %v", got)
	}
	ip6, _ := ParseIP6("2001:db8::1")
	if got := ip6.Bytes(); len(got) != 16 || got[15] != 1 {
		t.Errorf("v6 Bytes = %v", got)
	}
	m, _ := ParseMAC("00:11:22:33:44:55")
	if got := m.Bytes(); len(got) != 6 || got[5] != 0x55 {
		t.Errorf("mac Bytes = %v", got)
	}
	// Bytes returns copies.
	b := ip4.Bytes()
	b[0] = 99
	if ip4.String() != "1.2.3.4" {
		t.Error("Bytes aliases internal state")
	}
}

// TestIP4StringMatchesFmt pins IPv4 rendering to the dotted-quad fmt
// form: every value in every octet position, then random addresses.
func TestIP4StringMatchesFmt(t *testing.T) {
	check := func(a, b, c, d byte) {
		t.Helper()
		ip := IP{b: [16]byte{a, b, c, d}}
		if got, want := ip.String(), fmt.Sprintf("%d.%d.%d.%d", a, b, c, d); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
	for v := 0; v < 256; v++ {
		o := byte(v)
		check(o, 1, 2, 3)
		check(4, o, 5, 6)
		check(7, 8, o, 9)
		check(10, 11, 12, o)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		check(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
}
