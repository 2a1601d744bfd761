package artifact

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"concord/internal/contracts"
	"concord/internal/intern"
	"concord/internal/lexer"
	"concord/internal/netdata"
)

// The binary encodings below are deliberately simple: uvarint lengths
// and counts, length-prefixed strings, and a per-artifact string table
// deduplicating the heavily repeated fields (patterns, displays, token
// type names). Decoding allocates one string per distinct table entry
// plus the per-line Raw/Text, which is what makes replay cheap
// relative to re-lexing. Writer and Reader are the codec primitives of
// every binary payload in the repo: the artifact cache's, and the shard
// wire's (internal/shardrpc), which embeds CheckEntry records as is.

// Writer accumulates an encoding in Buf.
type Writer struct {
	Buf []byte
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(u uint64) { w.Buf = binary.AppendUvarint(w.Buf, u) }

// Bool appends one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	w.Buf = append(w.Buf, b)
}

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.Buf = append(w.Buf, b...)
}

// F64 appends a float64 as its fixed-width little-endian IEEE 754
// bits: exact round-trip, no formatting ambiguity.
func (w *Writer) F64(v float64) {
	w.Buf = binary.LittleEndian.AppendUint64(w.Buf, math.Float64bits(v))
}

// Reader decodes with a sticky error, so call sites stay linear and the
// final Done catches any malformed field. After the first error every
// read returns a zero value.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("artifact: bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return u
}

// Count reads a uvarint bounded by the remaining input, so a corrupt
// length can never drive a huge allocation.
func (r *Reader) Count() int {
	u := r.Uvarint()
	if r.err == nil && u > uint64(len(r.b)-r.off) {
		r.fail("artifact: count %d exceeds remaining input %d", u, len(r.b)-r.off)
		return 0
	}
	return int(u)
}

// line reads a 1-based line number, rejecting values no configuration
// can have.
func (r *Reader) line(what string) int {
	u := r.Uvarint()
	if u > math.MaxInt32 {
		r.fail("artifact: implausible %s line %d", what, u)
		return 0
	}
	return int(u)
}

// rawByte reads one byte.
func (r *Reader) rawByte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("artifact: truncated %s at offset %d", what, r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.rawByte("bool")
	if v > 1 {
		r.fail("artifact: bad bool value %d at offset %d", v, r.off-1)
	}
	return v == 1
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Count()
	if r.err != nil {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// Bytes reads a length-prefixed byte slice into a fresh copy.
func (r *Reader) Bytes() []byte {
	n := r.Count()
	if r.err != nil {
		return nil
	}
	b := make([]byte, n)
	copy(b, r.b[r.off:r.off+n])
	r.off += n
	return b
}

// F64 reads a float64 written by Writer.F64.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.fail("artifact: truncated float64 at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// Done returns the first decode error, or an error if input remains.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("artifact: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// stringTable deduplicates strings during encoding.
type stringTable struct {
	idx  map[string]uint64
	strs []string
}

func (t *stringTable) ref(s string) uint64 {
	if t.idx == nil {
		t.idx = make(map[string]uint64)
	}
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := uint64(len(t.strs))
	t.idx[s] = i
	t.strs = append(t.strs, s)
	return i
}

// EncodeConfig serializes a processed configuration (before metadata
// lines are appended). The encoding is name-independent: File fields
// are substituted at decode time, so renaming a file never invalidates
// its lex artifact. The second result is false when the configuration
// cannot round-trip — a parameter value of a kind the decoder cannot
// reconstruct (a custom netdata.Value implementation from a user token
// Parse func) — in which case the caller must not cache it.
func EncodeConfig(cfg *lexer.Config) ([]byte, bool) {
	var tab stringTable
	type lineEnc struct {
		pattern, display uint64
		params           [][2]uint64 // typeRef, kind; value string follows
	}
	// First pass: validate values and build the string table in a
	// deterministic first-use order.
	for i := range cfg.Lines {
		line := &cfg.Lines[i]
		if line.Meta {
			return nil, false // lex artifacts are pre-metadata by contract
		}
		tab.ref(line.Pattern)
		tab.ref(line.Display)
		for pi := range line.Params {
			if !encodableValue(line.Params[pi].Value) {
				return nil, false
			}
			tab.ref(line.Params[pi].Type)
		}
	}
	w := &Writer{Buf: make([]byte, 0, 64*len(cfg.Lines))}
	w.Uvarint(uint64(cfg.SourceLines))
	w.Uvarint(uint64(len(tab.strs)))
	for _, s := range tab.strs {
		w.Str(s)
	}
	w.Uvarint(uint64(len(cfg.Lines)))
	for i := range cfg.Lines {
		line := &cfg.Lines[i]
		w.Uvarint(uint64(line.Num))
		w.Str(line.Raw)
		w.Str(line.Text)
		w.Uvarint(tab.ref(line.Pattern))
		w.Uvarint(tab.ref(line.Display))
		w.Uvarint(uint64(len(line.Params)))
		for pi := range line.Params {
			p := &line.Params[pi]
			w.Uvarint(tab.ref(p.Type))
			w.Buf = append(w.Buf, byte(p.Value.Kind()))
			w.Str(p.Value.String())
		}
	}
	return w.Buf, true
}

// encodableValue reports whether a value is one of the built-in
// netdata kinds, whose canonical String() round-trips through the
// corresponding Parse function.
func encodableValue(v netdata.Value) bool {
	switch v.(type) {
	case netdata.Num, netdata.Hex, netdata.Bool, netdata.MAC, netdata.IP, netdata.Prefix, netdata.Str:
		return v.Kind() != netdata.KindInvalid
	default:
		return false
	}
}

// DecodeConfig reconstructs a configuration from EncodeConfig output,
// substituting the current run's source name and interning every
// pattern into the run's table so the compiled checker's dense-ID fast
// path works on replayed configs exactly as on freshly lexed ones.
func DecodeConfig(data []byte, name string, interns *intern.Table) (*lexer.Config, error) {
	r := NewReader(data)
	cfg := &lexer.Config{Name: name, Interns: interns}
	cfg.SourceLines = int(r.Uvarint())
	nStrs := r.Count()
	if r.err != nil {
		return nil, r.err
	}
	strs := make([]string, nStrs)
	for i := range strs {
		strs[i] = r.Str()
	}
	// Pattern IDs are interned once per distinct table entry, not once
	// per line.
	ids := make([]int32, nStrs)
	internID := func(ref uint64) (string, int32, error) {
		if ref >= uint64(nStrs) {
			return "", 0, fmt.Errorf("artifact: string ref %d out of range %d", ref, nStrs)
		}
		if ids[ref] == 0 && interns != nil {
			ids[ref] = interns.ID(strs[ref])
		}
		return strs[ref], ids[ref], nil
	}
	nLines := r.Count()
	if r.err != nil {
		return nil, r.err
	}
	cfg.Lines = make([]lexer.Line, 0, nLines)
	for i := 0; i < nLines; i++ {
		var line lexer.Line
		line.File = name
		line.Num = int(r.Uvarint())
		line.Raw = r.Str()
		line.Text = r.Str()
		pRef := r.Uvarint()
		dRef := r.Uvarint()
		nParams := r.Count()
		if r.err != nil {
			return nil, r.err
		}
		var err error
		if line.Pattern, line.PatternID, err = internID(pRef); err != nil {
			return nil, err
		}
		if dRef >= uint64(nStrs) {
			return nil, fmt.Errorf("artifact: string ref %d out of range %d", dRef, nStrs)
		}
		line.Display = strs[dRef]
		if nParams > 0 {
			line.Params = make([]lexer.Param, nParams)
			for pi := 0; pi < nParams; pi++ {
				tRef := r.Uvarint()
				kind := netdata.Kind(r.rawByte("param kind"))
				raw := r.Str()
				if r.err != nil {
					return nil, r.err
				}
				if tRef >= uint64(nStrs) {
					return nil, fmt.Errorf("artifact: string ref %d out of range %d", tRef, nStrs)
				}
				val, err := decodeValue(kind, raw)
				if err != nil {
					return nil, err
				}
				line.Params[pi] = lexer.Param{Name: lexer.VarName(pi), Type: strs[tRef], Value: val}
			}
		}
		cfg.Lines = append(cfg.Lines, line)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// decodeValue re-parses a value from its kind and canonical string.
func decodeValue(kind netdata.Kind, raw string) (netdata.Value, error) {
	switch kind {
	case netdata.KindNum:
		return netdata.ParseNum(raw)
	case netdata.KindHex:
		return netdata.ParseHex(raw)
	case netdata.KindBool:
		return netdata.ParseBool(raw)
	case netdata.KindMAC:
		return netdata.ParseMAC(raw)
	case netdata.KindIP4, netdata.KindIP6:
		if kind == netdata.KindIP4 {
			return netdata.ParseIP4(raw)
		}
		return netdata.ParseIP6(raw)
	case netdata.KindPfx4:
		return netdata.ParsePrefix4(raw)
	case netdata.KindPfx6:
		return netdata.ParsePrefix6(raw)
	case netdata.KindString:
		return netdata.Str(raw), nil
	default:
		return nil, fmt.Errorf("artifact: unknown value kind %d", kind)
	}
}

// CheckEntry is one configuration's cached check outcome: its sorted
// violations, the coverage counts the engine aggregates, and — for
// each unique contract — the ordered value sites the cross-config
// uniqueness merge needs, so a replayed config contributes to global
// uniqueness exactly as if it had been rescanned.
type CheckEntry struct {
	Violations  []contracts.Violation
	SourceLines int
	Covered     int
	ByCategory  map[contracts.Category]int
	// Unique maps unique-contract IDs to the config's value sites in
	// line order.
	Unique map[string][]contracts.UniqueSite
}

// EncodeCheckEntry serializes a check entry. Map fields are written in
// sorted key order so the encoding is deterministic.
func EncodeCheckEntry(e *CheckEntry) []byte {
	w := &Writer{Buf: make([]byte, 0, 256)}
	w.CheckEntry(e)
	return w.Buf
}

// CheckEntry appends e in EncodeCheckEntry's layout, so a larger record
// (the shard wire's per-config result) carries the entry as is.
func (w *Writer) CheckEntry(e *CheckEntry) {
	w.Uvarint(uint64(e.SourceLines))
	w.Uvarint(uint64(e.Covered))
	cats := make([]string, 0, len(e.ByCategory))
	for c := range e.ByCategory {
		cats = append(cats, string(c))
	}
	sort.Strings(cats)
	w.Uvarint(uint64(len(cats)))
	for _, c := range cats {
		w.Str(c)
		w.Uvarint(uint64(e.ByCategory[contracts.Category(c)]))
	}
	w.Uvarint(uint64(len(e.Violations)))
	for i := range e.Violations {
		v := &e.Violations[i]
		w.Str(string(v.Category))
		w.Str(v.ContractID)
		w.Str(v.Contract)
		w.Str(v.File)
		w.Uvarint(uint64(v.Line))
		w.Str(v.Detail)
	}
	ids := make([]string, 0, len(e.Unique))
	for id := range e.Unique {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		sites := e.Unique[id]
		w.Str(id)
		w.Uvarint(uint64(len(sites)))
		for _, s := range sites {
			w.Str(s.Key)
			w.Str(s.Display)
			w.Uvarint(uint64(s.Line))
		}
	}
}

// DecodeCheckEntry reconstructs a check entry.
func DecodeCheckEntry(data []byte) (*CheckEntry, error) {
	r := NewReader(data)
	e := r.CheckEntry()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &e, nil
}

// CheckEntry reads an entry written by Writer.CheckEntry. ByCategory
// and Unique are always non-nil (possibly empty) maps, matching what a
// cold check produces.
func (r *Reader) CheckEntry() CheckEntry {
	e := CheckEntry{
		ByCategory: make(map[contracts.Category]int),
		Unique:     make(map[string][]contracts.UniqueSite),
	}
	e.SourceLines = int(r.Uvarint())
	e.Covered = int(r.Uvarint())
	for i, n := 0, r.Count(); i < n && r.err == nil; i++ {
		c := contracts.Category(r.Str())
		e.ByCategory[c] = int(r.Uvarint())
	}
	for i, n := 0, r.Count(); i < n && r.err == nil; i++ {
		e.Violations = append(e.Violations, contracts.Violation{
			Category:   contracts.Category(r.Str()),
			ContractID: r.Str(),
			Contract:   r.Str(),
			File:       r.Str(),
			Line:       r.line("violation"),
			Detail:     r.Str(),
		})
	}
	for i, n := 0, r.Count(); i < n && r.err == nil; i++ {
		id := r.Str()
		m := r.Count()
		sites := make([]contracts.UniqueSite, 0, m)
		for j := 0; j < m && r.err == nil; j++ {
			sites = append(sites, contracts.UniqueSite{Key: r.Str(), Display: r.Str(), Line: r.line("site")})
		}
		e.Unique[id] = sites
	}
	return e
}
