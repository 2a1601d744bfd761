package netdata

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 or IPv6 address. IPv4 addresses occupy the first four
// bytes of the backing array; the v6 flag distinguishes the families.
type IP struct {
	b  [16]byte
	v6 bool
}

// ParseIP4 parses a dotted-quad IPv4 address. It rejects octets greater
// than 255 and octet counts other than four, so looser lexer regexes can
// be validated after matching.
func ParseIP4(s string) (IP, error) {
	var ip IP
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return ip, fmt.Errorf("netdata: invalid IPv4 address %q", s)
	}
	for i, p := range parts {
		if p == "" || len(p) > 3 {
			return ip, fmt.Errorf("netdata: invalid IPv4 address %q", s)
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			return ip, fmt.Errorf("netdata: invalid IPv4 address %q", s)
		}
		ip.b[i] = byte(n)
	}
	return ip, nil
}

// ParseIP6 parses an IPv6 address, supporting "::" compression and a
// trailing embedded IPv4 address (e.g. ::ffff:10.0.0.1).
func ParseIP6(s string) (IP, error) {
	ip := IP{v6: true}
	if s == "" {
		return ip, fmt.Errorf("netdata: invalid IPv6 address %q", s)
	}
	// Split on "::" first; at most one occurrence is allowed.
	var head, tail string
	var compressed bool
	if i := strings.Index(s, "::"); i >= 0 {
		compressed = true
		head, tail = s[:i], s[i+2:]
		if strings.Contains(tail, "::") {
			return ip, fmt.Errorf("netdata: invalid IPv6 address %q", s)
		}
	} else {
		head = s
	}
	parseGroups := func(part string) ([]uint16, error) {
		if part == "" {
			return nil, nil
		}
		fields := strings.Split(part, ":")
		var groups []uint16
		for i, f := range fields {
			// A trailing dotted-quad expands to two groups.
			if strings.Contains(f, ".") {
				if i != len(fields)-1 {
					return nil, fmt.Errorf("netdata: invalid IPv6 address %q", s)
				}
				v4, err := ParseIP4(f)
				if err != nil {
					return nil, err
				}
				groups = append(groups,
					uint16(v4.b[0])<<8|uint16(v4.b[1]),
					uint16(v4.b[2])<<8|uint16(v4.b[3]))
				continue
			}
			if f == "" || len(f) > 4 {
				return nil, fmt.Errorf("netdata: invalid IPv6 address %q", s)
			}
			n, err := strconv.ParseUint(f, 16, 16)
			if err != nil {
				return nil, fmt.Errorf("netdata: invalid IPv6 address %q", s)
			}
			groups = append(groups, uint16(n))
		}
		return groups, nil
	}
	hg, err := parseGroups(head)
	if err != nil {
		return ip, err
	}
	tg, err := parseGroups(tail)
	if err != nil {
		return ip, err
	}
	total := len(hg) + len(tg)
	switch {
	case compressed && total >= 8:
		return ip, fmt.Errorf("netdata: invalid IPv6 address %q", s)
	case !compressed && total != 8:
		return ip, fmt.Errorf("netdata: invalid IPv6 address %q", s)
	}
	groups := make([]uint16, 0, 8)
	groups = append(groups, hg...)
	for i := total; i < 8; i++ {
		groups = append(groups, 0)
	}
	groups = append(groups, tg...)
	for i, g := range groups {
		ip.b[2*i] = byte(g >> 8)
		ip.b[2*i+1] = byte(g)
	}
	return ip, nil
}

// Kind implements Value.
func (ip IP) Kind() Kind {
	if ip.v6 {
		return KindIP6
	}
	return KindIP4
}

// Key implements Value.
func (ip IP) Key() string { return ip.Kind().String() + ":" + ip.String() }

// String implements Value. IPv6 addresses are rendered in canonical
// lower-case form with the longest zero run compressed.
func (ip IP) String() string {
	if !ip.v6 {
		var buf [len("255.255.255.255")]byte
		out := strconv.AppendUint(buf[:0], uint64(ip.b[0]), 10)
		for _, o := range ip.b[1:4] {
			out = append(out, '.')
			out = strconv.AppendUint(out, uint64(o), 10)
		}
		return string(out)
	}
	groups := make([]uint16, 8)
	for i := range groups {
		groups[i] = uint16(ip.b[2*i])<<8 | uint16(ip.b[2*i+1])
	}
	// Find the longest run of zero groups (length >= 2) to compress.
	bestStart, bestLen := -1, 1
	for i := 0; i < 8; {
		if groups[i] != 0 {
			i++
			continue
		}
		j := i
		for j < 8 && groups[j] == 0 {
			j++
		}
		if j-i > bestLen {
			bestStart, bestLen = i, j-i
		}
		i = j
	}
	var sb strings.Builder
	for i := 0; i < 8; i++ {
		if i == bestStart {
			sb.WriteString("::")
			i += bestLen - 1
			continue
		}
		if i > 0 && !strings.HasSuffix(sb.String(), "::") {
			sb.WriteByte(':')
		}
		sb.WriteString(strconv.FormatUint(uint64(groups[i]), 16))
	}
	if sb.Len() == 0 {
		return "::"
	}
	return sb.String()
}

// Is6 reports whether the address is IPv6.
func (ip IP) Is6() bool { return ip.v6 }

// Bytes returns the address bytes: 4 bytes for IPv4, 16 for IPv6.
func (ip IP) Bytes() []byte {
	if ip.v6 {
		b := ip.b
		return b[:]
	}
	b := [4]byte{ip.b[0], ip.b[1], ip.b[2], ip.b[3]}
	return b[:]
}

// Octet returns the i-th octet (1-based, network order) of an IPv4
// address. It reports false for IPv6 addresses or out-of-range indexes.
// This backs the octet(i) data transformation.
func (ip IP) Octet(i int) (byte, bool) {
	if ip.v6 || i < 1 || i > 4 {
		return 0, false
	}
	return ip.b[i-1], true
}

// Bit returns bit i (0 = most significant) of the address.
func (ip IP) Bit(i int) byte {
	return (ip.b[i/8] >> (7 - i%8)) & 1
}

// Prefix is an IPv4 or IPv6 prefix in address/length notation.
type Prefix struct {
	ip     IP
	length int
}

// NewPrefix constructs a prefix from an address and a mask length. Host
// bits are preserved: configurations use address/length syntax both for
// networks (10.0.0.0/8) and for interface addresses (10.0.0.5/31), and
// collapsing the latter would erase identity that uniqueness and
// equality contracts depend on. Containment only ever inspects the
// first length bits.
func NewPrefix(ip IP, length int) (Prefix, error) {
	max := 32
	if ip.v6 {
		max = 128
	}
	if length < 0 || length > max {
		return Prefix{}, fmt.Errorf("netdata: invalid prefix length %d", length)
	}
	return Prefix{ip: ip, length: length}, nil
}

// ParsePrefix4 parses an IPv4 prefix such as "10.0.0.0/8".
func ParsePrefix4(s string) (Prefix, error) {
	addr, lenStr, ok := strings.Cut(s, "/")
	if !ok {
		return Prefix{}, fmt.Errorf("netdata: invalid IPv4 prefix %q", s)
	}
	ip, err := ParseIP4(addr)
	if err != nil {
		return Prefix{}, err
	}
	n, err := strconv.Atoi(lenStr)
	if err != nil {
		return Prefix{}, fmt.Errorf("netdata: invalid IPv4 prefix %q", s)
	}
	return NewPrefix(ip, n)
}

// ParsePrefix6 parses an IPv6 prefix such as "2001:db8::/32".
func ParsePrefix6(s string) (Prefix, error) {
	addr, lenStr, ok := strings.Cut(s, "/")
	if !ok {
		return Prefix{}, fmt.Errorf("netdata: invalid IPv6 prefix %q", s)
	}
	ip, err := ParseIP6(addr)
	if err != nil {
		return Prefix{}, err
	}
	n, err := strconv.Atoi(lenStr)
	if err != nil {
		return Prefix{}, fmt.Errorf("netdata: invalid IPv6 prefix %q", s)
	}
	return NewPrefix(ip, n)
}

// Kind implements Value.
func (p Prefix) Kind() Kind {
	if p.ip.v6 {
		return KindPfx6
	}
	return KindPfx4
}

// Key implements Value.
func (p Prefix) Key() string { return p.Kind().String() + ":" + p.String() }

// String implements Value.
func (p Prefix) String() string {
	return p.ip.String() + "/" + strconv.Itoa(p.length)
}

// Addr returns the (masked) network address of the prefix.
func (p Prefix) Addr() IP { return p.ip }

// Len returns the prefix length in bits.
func (p Prefix) Len() int { return p.length }

// Bits returns the total address width: 32 for IPv4, 128 for IPv6.
func (p Prefix) Bits() int {
	if p.ip.v6 {
		return 128
	}
	return 32
}

// ContainsIP reports whether the prefix contains the given address.
// Families must match.
func (p Prefix) ContainsIP(ip IP) bool {
	if p.ip.v6 != ip.v6 {
		return false
	}
	for i := 0; i < p.length; i++ {
		if p.ip.Bit(i) != ip.Bit(i) {
			return false
		}
	}
	return true
}

// ContainsPrefix reports whether p contains (subsumes) q: q's network
// falls inside p and q is at least as specific.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.length >= p.length && p.ContainsIP(q.ip)
}
