package contracts

// WithLinearScan selects the pre-compilation reference strategy: every
// contract is evaluated against every configuration with no index-based
// skipping. Tests diff the compiled hot path against it; results are
// identical either way.
func WithLinearScan(linear bool) CheckerOption {
	return func(ch *Checker) { ch.linear = linear }
}
