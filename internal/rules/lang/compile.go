package lang

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/rules"
	"repro/internal/similarity"
)

// Semantic validation sentinels, matchable with errors.Is through the
// *CompileError wrapper. Match-clause problems reuse the rules package's
// own sentinels (rules.ErrUnknownLevel, rules.ErrDuplicateLevel,
// rules.ErrNegativeSupport) so callers handle hand-built and compiled
// programs uniformly.
var (
	// ErrNoFields marks a predicate in a program with no fields
	// declaration.
	ErrNoFields = errors.New("lang: field predicates require a fields declaration")
	// ErrUnknownField marks a predicate naming an undeclared field.
	ErrUnknownField = errors.New("lang: unknown field")
	// ErrDuplicateField marks a fields declaration naming a field twice.
	ErrDuplicateField = errors.New("lang: duplicate field")
	// ErrBadThreshold marks a similarity threshold outside [0, 1].
	ErrBadThreshold = errors.New("lang: similarity threshold out of range")
	// ErrDuplicateLevelClause marks two level clauses assigning the same
	// level.
	ErrDuplicateLevelClause = errors.New("lang: duplicate level clause")
)

// Plan is a compiled, validated program ready for grounding: the match
// clauses lowered to the engine's rule slice, the level clauses ordered
// strongest-first for candidate re-discretization, and the seed clauses
// lowered to the ground constant they assign. Prog keeps the source
// order; only the executed conjunctions are reordered (see bind).
type Plan struct {
	Prog     *Program
	Rules    []rules.Rule
	fieldIdx map[string]int
	text     []bool      // by field position: some predicate reads it normalized
	levels   []levelPlan // strongest first
	seeds    []seedPlan
}

// test is one predicate bound to the position of its field in a split
// composite key.
type test struct {
	field int
	op    Op
	num   float64
}

type levelPlan struct {
	level similarity.Level
	cond  []test
}

type seedPlan struct {
	seed rules.Seed
	cond []test
}

// bind lowers a validated conjunction to its executed form: fields
// resolved to positions and the constant-time guards (equal, differ,
// absdiff) moved, stably, ahead of the string kernels (lev, jaro, qgram),
// so a failing guard spares the kernel. Predicates are pure and a
// conjunction commutes, so the order is invisible in the result.
func (pl *Plan) bind(cond []Pred) []test {
	out := make([]test, len(cond))
	for i, pr := range cond {
		out[i] = test{field: pl.fieldIdx[pr.Field], op: pr.Op, num: pr.Num}
		if pr.Op != OpAbsDiff {
			pl.text[out[i].field] = true
		}
	}
	kernel := func(t test) int {
		if t.op == OpLev || t.op == OpJaro || t.op == OpQGram {
			return 1
		}
		return 0
	}
	slices.SortStableFunc(out, func(a, b test) int { return kernel(a) - kernel(b) })
	return out
}

// Compile validates the parsed program and lowers it to a Plan. Errors
// are *CompileError values positioned at the offending clause and
// wrapping a typed sentinel.
func Compile(p *Program) (*Plan, error) {
	pl := &Plan{Prog: p, fieldIdx: make(map[string]int, len(p.Fields)), text: make([]bool, len(p.Fields))}
	for i, f := range p.Fields {
		if _, dup := pl.fieldIdx[f.Name]; dup {
			return nil, &CompileError{f.Pos, fmt.Errorf("%w: %q declared twice", ErrDuplicateField, f.Name)}
		}
		pl.fieldIdx[f.Name] = i
	}
	seenLevel := map[int]bool{}
	for _, lc := range p.Levels {
		if lc.Level < int(similarity.LevelWeak) || lc.Level > int(similarity.LevelStrong) {
			return nil, &CompileError{lc.Pos, fmt.Errorf("%w: level clause for level %d, want 1..3", rules.ErrUnknownLevel, lc.Level)}
		}
		if seenLevel[lc.Level] {
			return nil, &CompileError{lc.Pos, fmt.Errorf("%w: level %d assigned twice", ErrDuplicateLevelClause, lc.Level)}
		}
		seenLevel[lc.Level] = true
		if err := pl.checkCond(lc.Cond); err != nil {
			return nil, err
		}
	}
	seenMatch := map[int]bool{}
	for _, mc := range p.Matches {
		if mc.Level < int(similarity.LevelWeak) || mc.Level > int(similarity.LevelStrong) {
			return nil, &CompileError{mc.Pos, fmt.Errorf("%w: match clause for level %d, want 1..3", rules.ErrUnknownLevel, mc.Level)}
		}
		if seenMatch[mc.Level] {
			return nil, &CompileError{mc.Pos, fmt.Errorf("%w: two match clauses for level %d", rules.ErrDuplicateLevel, mc.Level)}
		}
		seenMatch[mc.Level] = true
		if mc.Cooccur < 0 {
			return nil, &CompileError{mc.Pos, fmt.Errorf("%w: cooccur >= %d", rules.ErrNegativeSupport, mc.Cooccur)}
		}
		pl.Rules = append(pl.Rules, rules.Rule{
			Level:              similarity.Level(mc.Level),
			MinCoauthorMatches: mc.Cooccur,
		})
	}
	for _, sc := range p.Seeds {
		if err := pl.checkCond(sc.Cond); err != nil {
			return nil, err
		}
	}
	// Belt and braces: the lowered rules must satisfy the engine's own
	// validation (the per-clause checks above are its positioned mirror).
	if err := rules.Validate(pl.Rules); err != nil {
		return nil, err
	}
	for _, lc := range p.Levels {
		pl.levels = append(pl.levels, levelPlan{similarity.Level(lc.Level), pl.bind(lc.Cond)})
	}
	slices.SortFunc(pl.levels, func(a, b levelPlan) int { return int(b.level - a.level) })
	for _, sc := range p.Seeds {
		seed := rules.SeedEqual
		if sc.Negated {
			seed = rules.SeedDistinct
		}
		pl.seeds = append(pl.seeds, seedPlan{seed, pl.bind(sc.Cond)})
	}
	return pl, nil
}

// CompileSource parses and compiles in one step.
func CompileSource(src string) (*Plan, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(p)
}

func (pl *Plan) checkCond(cond []Pred) error {
	for _, pr := range cond {
		if len(pl.Prog.Fields) == 0 {
			return &CompileError{pr.Pos, fmt.Errorf("%w (predicate on %q)", ErrNoFields, pr.Field)}
		}
		if _, ok := pl.fieldIdx[pr.Field]; !ok {
			return &CompileError{pr.Pos, fmt.Errorf("%w: %q (declared: %v)", ErrUnknownField, pr.Field, fieldNames(pl.Prog.Fields))}
		}
		switch pr.Op {
		case OpJaro, OpQGram:
			if pr.Num < 0 || pr.Num > 1 {
				return &CompileError{pr.Pos, fmt.Errorf("%w: %s >= %s, want a value in [0, 1]", ErrBadThreshold, pr.Op, formatNum(pr.Num))}
			}
		}
	}
	return nil
}

func fieldNames(fs []FieldDecl) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

// record is one composite key as the predicates read it: split into fields
// and, per field some string predicate names, normalized — once, however
// many candidates and clauses compare the record. absdiff reads the raw
// payload (normalizing would break "3.5" into "3 5"); every other
// predicate reads the normalized one.
type record struct {
	raw  []string
	norm []string // norm[i] is set only where the plan's text[i] is
}

func (pl *Plan) newRecord(key string) record {
	r := record{raw: similarity.SplitFields(key)}
	r.norm = make([]string, len(r.raw))
	for i, f := range r.raw {
		if i < len(pl.text) && pl.text[i] {
			r.norm[i] = similarity.NormalizeField(f)
		}
	}
	return r
}

// fieldVal returns a field of a split composite key; fields past the end
// of a short key are empty (missing data, never evidence).
func fieldVal(fields []string, idx int) string {
	if idx >= len(fields) {
		return ""
	}
	return fields[idx]
}

func (t test) holds(a, b *record) bool {
	if t.op == OpAbsDiff {
		d, ok := similarity.AbsDiff(fieldVal(a.raw, t.field), fieldVal(b.raw, t.field))
		return ok && d <= t.num
	}
	x, y := fieldVal(a.norm, t.field), fieldVal(b.norm, t.field)
	switch t.op {
	case OpEqual:
		return similarity.NormalizedEqual(x, y)
	case OpDiffer:
		return similarity.NormalizedDiffer(x, y)
	case OpJaro:
		return similarity.NormalizedJaro(x, y) >= t.num
	case OpQGram:
		return similarity.NormalizedQGram(x, y) >= t.num
	case OpLev:
		return similarity.NormalizedLev(x, y) <= int(t.num)
	}
	return false
}

// holds evaluates a bound conjunction over two records.
func holds(cond []test, a, b *record) bool {
	for _, t := range cond {
		if !t.holds(a, b) {
			return false
		}
	}
	return true
}

// levelOf assigns the highest declared level whose condition holds, or
// LevelNone when none does.
func (pl *Plan) levelOf(a, b *record) similarity.Level {
	for _, lp := range pl.levels {
		if holds(lp.cond, a, b) {
			return lp.level
		}
	}
	return similarity.LevelNone
}

// seedOf is the ground hard evidence the seed clauses assign: the union of
// every clause that holds.
func (pl *Plan) seedOf(a, b *record) rules.Seed {
	var seed rules.Seed
	for _, sp := range pl.seeds {
		if seed&sp.seed == 0 && holds(sp.cond, a, b) {
			seed |= sp.seed
		}
	}
	return seed
}

// LevelOf discretizes the similarity of two composite record keys with
// the program's level clauses. It is only meaningful for programs that
// declare level clauses; without any it returns LevelNone for everything.
func (pl *Plan) LevelOf(keyA, keyB string) similarity.Level {
	a, b := pl.newRecord(keyA), pl.newRecord(keyB)
	return pl.levelOf(&a, &b)
}

// Relevels reports whether the plan re-discretizes candidate levels
// (i.e. the program declares level clauses).
func (pl *Plan) Relevels() bool { return len(pl.levels) > 0 }

// Seeded reports whether the plan injects hard evidence seeds.
func (pl *Plan) Seeded() bool { return len(pl.seeds) > 0 }
