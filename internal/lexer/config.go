package lexer

import "concord/internal/intern"

// Line is one processed configuration line: the original source text,
// its context-embedded form, and the extracted typed pattern and
// parameters. Pattern identity (the Pattern field) includes the
// embedded context, so identical leaf commands under different parents
// are distinct patterns, per §3.1 of the paper.
type Line struct {
	// File names the source configuration (or metadata) file.
	File string
	// Num is the 1-based line number in the original file.
	Num int
	// Raw is the original source line with surrounding whitespace
	// trimmed.
	Raw string
	// Text is the context-embedded line that was lexed, e.g.
	// "/interface Loopback[num]/ip address 10.14.14.34". Context
	// segments use untyped placeholders; the leaf retains original text.
	Text string
	// Pattern is the canonical pattern key: embedded context plus the
	// untyped leaf pattern. Lines with equal Pattern match the same
	// contract patterns.
	Pattern string
	// PatternID is Pattern's dense ID in the run's intern table (see
	// Config.Interns); 0 means "not interned" (hand-constructed lines).
	// The miner interns such lines on the fly (into a fresh table when
	// no config carries one); the checker keys them by the string.
	PatternID int32
	// Display is the context plus the named leaf pattern, e.g.
	// ".../rd [a:ip4]:[b:num]", used when rendering contracts.
	Display string
	// Params holds the leaf's extracted parameters in order. Context
	// segments never bind parameters (paper §3.2).
	Params []Param
	// Meta marks lines appended from external metadata files (§3.7).
	// Ordering contracts never span a meta boundary.
	Meta bool
}

// Config is one processed configuration: a device's worth of lines plus
// any appended metadata lines.
type Config struct {
	// Name identifies the configuration (usually the file name).
	Name string
	// Lines lists the processed lines in file order; metadata lines, if
	// any, follow the configuration's own lines.
	Lines []Line
	// SourceLines counts the non-blank lines of the original
	// configuration file (excluding metadata), the denominator for
	// coverage.
	SourceLines int
	// Skipped marks a configuration the input guards rejected entirely
	// (oversized or binary content); such configs carry no lines and are
	// dropped from the corpus with a diagnostic.
	Skipped bool
	// Interns is the run's string intern table that assigned the
	// PatternID values on this config's lines. All configs of one
	// processed corpus share one table; it travels with the configs so
	// the miner and the check compiler can translate between IDs and
	// pattern strings. Nil for hand-constructed configs.
	Interns *intern.Table
}

// ParamIndex returns the index of the parameter with the given name, or
// -1 if absent.
func (l *Line) ParamIndex(name string) int {
	for i := range l.Params {
		if l.Params[i].Name == name {
			return i
		}
	}
	return -1
}

// CommonInterns returns the intern table shared by every configuration,
// or nil when the corpus carries none (hand-constructed configs) or
// mixes tables from different runs. Only a corpus-wide table lets the
// checker accelerate its view index. The miner folds a corpus without
// one into a fresh table and rejects a corpus mixing tables (see
// mining.Miner.MineContext).
func CommonInterns(cfgs []*Config) *intern.Table {
	if len(cfgs) == 0 || cfgs[0].Interns == nil {
		return nil
	}
	tab := cfgs[0].Interns
	for _, cfg := range cfgs[1:] {
		if cfg.Interns != tab {
			return nil
		}
	}
	return tab
}
