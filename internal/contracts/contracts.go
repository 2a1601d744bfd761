// Package contracts defines Concord's contract model: the six contract
// categories of Table 2 (present, ordering, type, sequence, unique,
// relational), their JSON serialization, their evaluation against
// configurations (checking, §3.8), and per-line configuration coverage
// (§3.9).
package contracts

import (
	"fmt"
	"strconv"

	"concord/internal/lexer"
	"concord/internal/relations"
)

// Category names a contract category.
type Category string

// The contract categories from Table 2 of the paper.
const (
	CatPresent  Category = "present"
	CatOrdering Category = "ordering"
	CatType     Category = "type"
	CatSequence Category = "sequence"
	CatUnique   Category = "unique"
	CatRelation Category = "relation"
)

// Categories lists all categories in the paper's table order.
func Categories() []Category {
	return []Category{CatPresent, CatOrdering, CatType, CatSequence, CatUnique, CatRelation}
}

// Stats records the statistical evidence behind a learned contract.
type Stats struct {
	// Support is the number of training configurations in the contract's
	// scope (for most categories, those containing the antecedent
	// pattern).
	Support int `json:"support"`
	// Confidence is the fraction of supporting configurations in which
	// the contract held during learning.
	Confidence float64 `json:"confidence"`
	// Score is the cumulative informativeness score (relational
	// contracts only).
	Score float64 `json:"score,omitempty"`
}

// Contract is one learned or hand-written configuration contract.
type Contract interface {
	// Category returns the contract's category.
	Category() Category
	// ID returns a canonical identity string; two contracts with equal
	// IDs are the same contract.
	ID() string
	// String renders the contract in the paper's notation.
	String() string
	// Stats returns the statistical evidence for the contract.
	Stats() Stats
}

// Present requires at least one line matching Pattern
// (exists l ~ p).
type Present struct {
	// Pattern is the canonical untyped pattern key — or, when Exact is
	// set, the exact embedded line text.
	Pattern string `json:"pattern"`
	// Display is the named-parameter rendering of the pattern.
	Display string `json:"display"`
	// Exact marks a constant-learning contract (§4): the line must match
	// the exact text, data values included.
	Exact bool `json:"exact,omitempty"`
	// Evidence holds the learning statistics.
	Evidence Stats `json:"stats"`
}

// Category implements Contract.
func (c *Present) Category() Category { return CatPresent }

// ID implements Contract.
func (c *Present) ID() string {
	if c.Exact {
		return "present-exact|" + c.Pattern
	}
	return "present|" + c.Pattern
}

// String implements Contract.
func (c *Present) String() string {
	if c.Exact {
		return "exists l = " + c.Display
	}
	return "exists l ~ " + c.Display
}

// Stats implements Contract.
func (c *Present) Stats() Stats { return c.Evidence }

// Ordering requires every line matching First to be immediately followed
// by a line matching Second.
type Ordering struct {
	First         string `json:"first"`
	Second        string `json:"second"`
	DisplayFirst  string `json:"display_first"`
	DisplaySecond string `json:"display_second"`
	Evidence      Stats  `json:"stats"`
}

// Category implements Contract.
func (c *Ordering) Category() Category { return CatOrdering }

// ID implements Contract.
func (c *Ordering) ID() string { return "ordering|" + c.First + "|" + c.Second }

// String implements Contract.
func (c *Ordering) String() string {
	return fmt.Sprintf("forall l1 ~ %s\nexists l2 ~ %s\nequals(index(l1) + 1, index(l2))",
		c.DisplayFirst, c.DisplaySecond)
}

// Stats implements Contract.
func (c *Ordering) Stats() Stats { return c.Evidence }

// TypeError forbids a parameter type: lines whose type-agnostic pattern
// is Agnostic must not use BadType for the parameter at ParamIdx
// (!(exists l ~ p with [BadType])).
type TypeError struct {
	// Agnostic is the type-agnostic pattern (placeholders rewritten to
	// [?]).
	Agnostic string `json:"agnostic"`
	// ParamIdx indexes the leaf parameter the contract constrains.
	ParamIdx int `json:"param"`
	// BadType is the forbidden token type name.
	BadType string `json:"bad_type"`
	// GoodTypes lists the accepted types observed during learning.
	GoodTypes []string `json:"good_types,omitempty"`
	Evidence  Stats    `json:"stats"`
}

// Category implements Contract.
func (c *TypeError) Category() Category { return CatType }

// ID implements Contract.
func (c *TypeError) ID() string {
	return fmt.Sprintf("type|%s|%d|%s", c.Agnostic, c.ParamIdx, c.BadType)
}

// String implements Contract.
func (c *TypeError) String() string {
	return fmt.Sprintf("!(exists l ~ %s with %s:[%s])",
		c.Agnostic, lexer.VarName(c.ParamIdx), c.BadType)
}

// Stats implements Contract.
func (c *TypeError) Stats() Stats { return c.Evidence }

// Sequence requires the values of a numeric parameter to be equidistant
// across the lines matching Pattern within one configuration
// (e.g. seq 10, 20, 30).
type Sequence struct {
	Pattern  string `json:"pattern"`
	Display  string `json:"display"`
	ParamIdx int    `json:"param"`
	Evidence Stats  `json:"stats"`
}

// Category implements Contract.
func (c *Sequence) Category() Category { return CatSequence }

// ID implements Contract.
func (c *Sequence) ID() string { return fmt.Sprintf("sequence|%s|%d", c.Pattern, c.ParamIdx) }

// String implements Contract.
func (c *Sequence) String() string {
	return fmt.Sprintf("sequence(%s) on %s", lexer.VarName(c.ParamIdx), c.Display)
}

// Stats implements Contract.
func (c *Sequence) Stats() Stats { return c.Evidence }

// Unique requires the values of a parameter to be globally unique across
// all configurations, and (because uniqueness is learned from configs
// that define the value) each configuration to define it at least once.
// The existence component is what gives unique contracts nonzero
// coverage in Table 5; see DESIGN.md.
type Unique struct {
	Pattern  string `json:"pattern"`
	Display  string `json:"display"`
	ParamIdx int    `json:"param"`
	Evidence Stats  `json:"stats"`
}

// Category implements Contract.
func (c *Unique) Category() Category { return CatUnique }

// ID implements Contract.
func (c *Unique) ID() string { return fmt.Sprintf("unique|%s|%d", c.Pattern, c.ParamIdx) }

// String implements Contract.
func (c *Unique) String() string {
	return fmt.Sprintf("unique(%s) on %s", lexer.VarName(c.ParamIdx), c.Display)
}

// Stats implements Contract.
func (c *Unique) Stats() Stats { return c.Evidence }

// Relational requires that for every line l1 matching Pattern1, some
// line l2 matching Pattern2 exists in the same configuration with
// Rel(Transform2(l2.param2), Transform1(l1.param1)) — e.g. "every
// interface address is permitted by some prefix-list entry".
type Relational struct {
	Pattern1   string        `json:"pattern1"`
	Display1   string        `json:"display1"`
	ParamIdx1  int           `json:"param1"`
	Transform1 string        `json:"transform1"`
	Rel        relations.Rel `json:"rel"`
	Pattern2   string        `json:"pattern2"`
	Display2   string        `json:"display2"`
	ParamIdx2  int           `json:"param2"`
	Transform2 string        `json:"transform2"`
	Evidence   Stats         `json:"stats"`
}

// Category implements Contract.
func (c *Relational) Category() Category { return CatRelation }

// ID implements Contract. It is built by concatenation, not fmt: every
// reported relational violation carries it.
func (c *Relational) ID() string {
	return "relation|" + c.Pattern1 + "|" + strconv.Itoa(c.ParamIdx1) + "|" + c.Transform1 + "|" +
		string(c.Rel) + "|" + c.Pattern2 + "|" + strconv.Itoa(c.ParamIdx2) + "|" + c.Transform2
}

// String implements Contract.
func (c *Relational) String() string {
	lhs := wrapTransform(c.Transform1, "l1."+lexer.VarName(c.ParamIdx1))
	rhs := wrapTransform(c.Transform2, "l2."+lexer.VarName(c.ParamIdx2))
	var formula string
	if c.Rel == relations.Equals {
		formula = fmt.Sprintf("equals(%s, %s)", lhs, rhs)
	} else {
		// contains(l2.b, l1.a): the witness is the larger operand.
		formula = fmt.Sprintf("%s(%s, %s)", c.Rel, rhs, lhs)
	}
	return fmt.Sprintf("forall l1 ~ %s\nexists l2 ~ %s\n%s", c.Display1, c.Display2, formula)
}

// Stats implements Contract.
func (c *Relational) Stats() Stats { return c.Evidence }

// wrapTransform renders a transform application, keeping identity
// transparent: wrapTransform("hex", "l1.a") = "hex(l1.a)".
func wrapTransform(name, arg string) string {
	if name == "" || name == "id" {
		return arg
	}
	return name + "(" + arg + ")"
}

// Set is a collection of contracts, the unit produced by learning and
// consumed by checking.
type Set struct {
	Contracts []Contract
}

// ByCategory groups the set's contracts by category, preserving order.
func (s *Set) ByCategory() map[Category][]Contract {
	out := make(map[Category][]Contract)
	for _, c := range s.Contracts {
		out[c.Category()] = append(out[c.Category()], c)
	}
	return out
}

// Count returns the number of contracts in the given category.
func (s *Set) Count(cat Category) int {
	n := 0
	for _, c := range s.Contracts {
		if c.Category() == cat {
			n++
		}
	}
	return n
}

// Len returns the total number of contracts.
func (s *Set) Len() int { return len(s.Contracts) }

// Without returns a copy of the set with the listed contract IDs
// removed, plus the number actually suppressed. This backs the operator
// feedback loop of §4: false-positive contracts flagged through the
// report UI are suppressed on future checks.
func (s *Set) Without(ids map[string]bool) (*Set, int) {
	out := &Set{Contracts: make([]Contract, 0, len(s.Contracts))}
	suppressed := 0
	for _, c := range s.Contracts {
		if ids[c.ID()] {
			suppressed++
			continue
		}
		out.Contracts = append(out.Contracts, c)
	}
	return out, suppressed
}
