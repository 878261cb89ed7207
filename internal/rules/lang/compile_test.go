package lang

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/rules"
	"repro/internal/similarity"
)

func mustCompile(t *testing.T, src string) *Plan {
	t.Helper()
	pl, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestCompileLowersRules(t *testing.T) {
	pl := mustCompile(t, peopleSrc)
	want := []rules.Rule{
		{Level: similarity.LevelStrong, MinCoauthorMatches: 0},
		{Level: similarity.LevelMedium, MinCoauthorMatches: 1},
		{Level: similarity.LevelWeak, MinCoauthorMatches: 2},
	}
	if len(pl.Rules) != len(want) {
		t.Fatalf("rules = %+v", pl.Rules)
	}
	for i, r := range want {
		if pl.Rules[i] != r {
			t.Errorf("rule %d = %+v, want %+v", i, pl.Rules[i], r)
		}
	}
	if !pl.Relevels() || !pl.Seeded() {
		t.Error("plan should relevel and seed")
	}
}

// TestCompileErrors pins the typed sentinel and position of each
// semantic rejection.
func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		want      error
		line, col int
	}{
		{"duplicate field", "program p\nfields a, b, a\n", ErrDuplicateField, 2, 14},
		{"unknown field", "program p\nfields a\nlevel 2 when b equal\n", ErrUnknownField, 3, 14},
		{"no fields decl", "program p\nequal when a equal\n", ErrNoFields, 2, 12},
		{"level out of range", "program p\nfields a\nlevel 4 when a equal\n", rules.ErrUnknownLevel, 3, 1},
		{"duplicate level clause", "program p\nfields a\nlevel 2 when a equal\nlevel 2 when a differ\n", ErrDuplicateLevelClause, 4, 1},
		{"match level out of range", "program p\nmatch level 0\n", rules.ErrUnknownLevel, 2, 1},
		{"duplicate match level", "program p\nmatch level 2\nmatch level 2 when cooccur >= 1\n", rules.ErrDuplicateLevel, 3, 1},
		{"jaro threshold", "program p\nfields a\nlevel 2 when a jaro >= 1.5\n", ErrBadThreshold, 3, 14},
		{"qgram threshold", "program p\nfields a\ndistinct when a qgram >= 2.0\n", ErrBadThreshold, 3, 15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := CompileSource(tc.src)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			var ce *CompileError
			if !errors.As(err, &ce) {
				t.Fatalf("got %T, want *CompileError", err)
			}
			if ce.Pos.Line != tc.line || ce.Pos.Col != tc.col {
				t.Errorf("position = %s, want %d:%d (%v)", ce.Pos, tc.line, tc.col, err)
			}
		})
	}
}

func TestLevelOf(t *testing.T) {
	pl := mustCompile(t, peopleSrc)
	cases := []struct {
		a, b string
		want similarity.Level
	}{
		// Same name + phone: level 3.
		{"ann smith | 12 oak st | 94110 | 555-0101", "Ann Smith | 12 Oak St. | 94110 | 555-0101", similarity.LevelStrong},
		// Close name + same street, phone differs: level 2.
		{"ann smith | 12 oak st | 94110 | 555-0101", "ann smyth | 12 oak st | 94110 |", similarity.LevelMedium},
		// Close name only: level 1.
		{"ann smith | 12 oak st | 94110 |", "ann smithe | 9 elm ave | 90210 |", similarity.LevelWeak},
		// Unrelated: none.
		{"ann smith | 12 oak st | 94110 |", "bob jones | 9 elm ave | 90210 |", similarity.LevelNone},
	}
	for _, tc := range cases {
		if got := pl.LevelOf(tc.a, tc.b); got != tc.want {
			t.Errorf("LevelOf(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if sym := pl.LevelOf(tc.b, tc.a); sym != pl.LevelOf(tc.a, tc.b) {
			t.Errorf("LevelOf asymmetric on %q/%q", tc.a, tc.b)
		}
	}
}

// TestCheapestFirst: the executed conjunction runs the constant-time
// guards before the string kernels, stably, while the printed program
// keeps the source order — and the order changes no verdict.
func TestCheapestFirst(t *testing.T) {
	src := "program p\nfields name, zip, age\n" +
		"level 2 when name jaro >= 0.9 and zip equal and name lev <= 2 and age absdiff <= 1\n" +
		"match level 2\n" +
		"distinct when name qgram >= 0.1 and zip differ\n"
	pl := mustCompile(t, src)
	ops := func(cond []test) []Op {
		out := make([]Op, len(cond))
		for i, c := range cond {
			out[i] = c.op
		}
		return out
	}
	if got, want := ops(pl.levels[0].cond), []Op{OpEqual, OpAbsDiff, OpJaro, OpLev}; !slices.Equal(got, want) {
		t.Errorf("level clause executes %v, want %v", got, want)
	}
	if got, want := ops(pl.seeds[0].cond), []Op{OpDiffer, OpQGram}; !slices.Equal(got, want) {
		t.Errorf("seed clause executes %v, want %v", got, want)
	}
	if got := pl.Prog.Print(); got != src {
		t.Errorf("Print reordered the program:\n%s", got)
	}
	// Every combination of passing and failing guard and kernel.
	keys := []string{"ann smith | 94110 | 30", "ann smyth | 94110 | 31", "ann smith | 90210 | 30", "zed quux | 94110 | 55", "ann smith | |"}
	for _, a := range keys {
		for _, b := range keys {
			ra, rb := pl.newRecord(a), pl.newRecord(b)
			for _, cl := range pl.Prog.Levels {
				want := true
				for _, pr := range cl.Cond { // source order, as written
					if !(test{pl.fieldIdx[pr.Field], pr.Op, pr.Num}).holds(&ra, &rb) {
						want = false
					}
				}
				if got := pl.levelOf(&ra, &rb) == similarity.Level(cl.Level); got != want {
					t.Errorf("level %d on %q / %q: planned %v, source order %v", cl.Level, a, b, got, want)
				}
			}
		}
	}
}
