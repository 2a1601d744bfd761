package lexer

import "concord/internal/netdata"

// UserSpecs returns user token specs that reach every way a user spec
// meets the scan, for tests that compare Lex with LexLinear: a
// selective token (the wan example's interface token), an unselective
// one, a \b-bounded one, one whose Parse rejects some spans, one with
// NoDigitBefore and WordBoundary guards, and a copy of the ip4 Builtin
// spec. The first two are BenchmarkLexUserTokens's tokens.
func UserSpecs() []TokenSpec {
	addr := Builtin()[4]
	addr.Name = "addr4"
	return []TokenSpec{
		{Name: "iface", Pattern: `(?:et|xe|ge)-[0-9]+/[0-9]+/[0-9]+`},
		{Name: "port", Pattern: `[A-Za-z]+[0-9]+(?:/[0-9]+)+`},
		{Name: "word", Pattern: `\b[a-z]{2,4}[0-9]+\b`},
		{Name: "even", Pattern: `[0-9]+`, Parse: parseEven},
		{Name: "pair", Pattern: `[0-9]{2}`, NoDigitBefore: true, WordBoundary: true},
		addr,
	}
}

// parseEven accepts even decimal numbers only.
func parseEven(s string) (netdata.Value, error) {
	n, err := netdata.ParseNum(s)
	if err != nil {
		return nil, err
	}
	if i, ok := n.Int64(); !ok || i%2 != 0 {
		return nil, errOdd
	}
	return n, nil
}
