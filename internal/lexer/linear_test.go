package lexer

import "slices"

// LexLinear is the pre-optimization matching strategy: every spec's
// matches are collected over the whole line, globally sorted, and
// resolved by position and precedence. It produces output identical to
// Lex and is kept as the reference FuzzLex compares Lex against.
func (lx *Lexer) LexLinear(line string) Lexed {
	if len(line) > MaxLexLine {
		line = line[:MaxLexLine]
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	// Collect candidate spans from every spec, then resolve overlaps by
	// position and precedence.
	var candidates []span
	for si := range lx.specs {
		spec := &lx.specs[si]
		for _, loc := range spec.re.FindAllStringIndex(line, -1) {
			start, end := loc[0], loc[1]
			if start == end {
				continue
			}
			v, ok := lx.accept(spec, line, start, end)
			if !ok {
				continue
			}
			candidates = append(candidates, span{start: start, end: end, spec: si, value: v})
		}
	}
	// Stable resolution: earlier start first; at equal start, higher
	// precedence (lower spec index) first; ties broken by longer span.
	slices.SortFunc(candidates, func(a, b span) int {
		if a.start != b.start {
			return a.start - b.start
		}
		if a.spec != b.spec {
			return a.spec - b.spec
		}
		return b.end - a.end
	})

	chosen := sc.spans[:0]
	pos := 0
	for _, c := range candidates {
		if c.start < pos {
			continue
		}
		if len(chosen) >= MaxParamsPerLine {
			break
		}
		chosen = append(chosen, c)
		pos = c.end
	}
	res := lx.render(line, chosen, sc)
	sc.spans = chosen[:0]
	return res
}
