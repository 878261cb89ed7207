// Package experiments regenerates every table and figure of the paper's
// evaluation (§6 and Appendix C): the accuracy figures 3(a)–3(c), the
// running-time figures 3(d)–3(f), the grid Table 1, and the RULES
// figures 4(a)–4(c). Each experiment returns a Table whose rows mirror
// the series the paper plots; cmd/embench prints them and bench_test.go
// wraps each in a testing.B benchmark.
//
// Absolute numbers differ from the paper (synthetic corpora, an exact
// graph-cut MLN solver instead of Alchemy, a simulated grid clock that
// replays a pool run's record instead of Hadoop), but the shape claims
// are preserved and asserted by this package's tests. For the
// timing figures the harness reports, next to measured wall time, a
// *modeled* inference time Σ cost(active) over all neighborhood
// evaluations, where active is the number of undecided matching decisions
// — the quantity §6.2 identifies as the driver of SMP/MMP's speed
// advantage — and cost(m) = m^CostExponent. This models the steeply
// superlinear per-neighborhood cost of the paper's Alchemy-based matcher,
// which our polynomial exact solver deliberately does not have.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	cem "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/mln"
	"repro/match"
)

// Config scales and seeds the experiment suite.
type Config struct {
	// Scale multiplies corpus sizes (1.0 ≈ a few thousand references).
	Scale float64
	// Seed drives dataset generation and grid assignment.
	Seed int64
	// Machines is the simulated grid width for Table 1 (the paper: 30).
	Machines int
	// RoundOverhead is the per-round scheduling cost of the simulated
	// grid (mapper/reducer setup on Hadoop).
	RoundOverhead time.Duration
	// CostExponent is the exponent of the modeled per-neighborhood
	// inference cost cost(m) = m^CostExponent (Alchemy-like superlinear
	// growth; the paper's Figure 3(f) shows near-exponential behavior).
	CostExponent float64
	// Fig3fSteps is the number of prefix sizes swept in Figure 3(f).
	Fig3fSteps int
	// Parallelism bounds concurrent neighborhood evaluations in every
	// scheme run (0/1 = serial; timing columns are only meaningful
	// serially, accuracy columns are parallelism-invariant). Table 1 uses
	// at least 2 workers: its rounds are mapped against round-start
	// evidence, as the grid's are.
	Parallelism int
}

// Default returns a configuration sized for interactive runs.
func Default() Config {
	return Config{
		Scale:         0.5,
		Seed:          42,
		Machines:      30,
		RoundOverhead: 500 * time.Millisecond,
		CostExponent:  2.0,
		Fig3fSteps:    8,
	}
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// modeledCost evaluates the inference-cost model over a run's recorded
// active sizes: Σ active^exp, in abstract cost units.
func modeledCost(sizes []int, exponent float64) float64 {
	total := 0.0
	for _, m := range sizes {
		if m <= 0 {
			continue
		}
		total += math.Pow(float64(m), exponent)
	}
	return total
}

func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }
func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}
func fmtCost(c float64) string { return fmt.Sprintf("%.2e", c) }

// setup builds a fully wired experiment for a corpus kind.
func setup(kind cem.DatasetKind, cfg Config) (*cem.Experiment, error) {
	d := cem.NewDataset(kind, cfg.Scale, cfg.Seed)
	return cem.New(d)
}

// run executes one scheme through the Runner API, propagating the
// configured parallelism.
func run(exp *cem.Experiment, matcher string, s cem.Scheme, cfg Config, opts ...cem.RunnerOption) (*cem.Result, error) {
	opts = append(opts, cem.WithParallelism(cfg.Parallelism))
	r, err := exp.Runner(matcher, opts...)
	if err != nil {
		return nil, err
	}
	return r.Run(context.Background(), s)
}

// mlnOf returns the experiment's built-in MLN matcher — the instance
// every runner of it naming MatcherMLN shares.
func mlnOf(exp *cem.Experiment) (*mln.Matcher, error) {
	r, err := exp.Runner(cem.MatcherMLN)
	if err != nil {
		return nil, err
	}
	return r.Matcher().(*mln.Matcher), nil
}

// accuracyTable runs the given schemes with a matcher and tabulates
// P/R/F1 (figures 3a, 3b, 4a, 4b).
func accuracyTable(id, title string, kind cem.DatasetKind, matcher string, schemes []cem.Scheme, cfg Config) (*Table, error) {
	exp, err := setup(kind, cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"scheme", "P", "R", "F1", "tp", "fp", "fn"},
	}
	// RULES is evaluated with transitive closure applied at the end of
	// the run, exactly as Appendix B prescribes; the MLN rule set has no
	// transitivity rule, so its output is scored raw.
	var ropts []cem.RunnerOption
	if matcher == cem.MatcherRules {
		ropts = append(ropts, cem.WithTransitiveClosure())
	}
	for _, s := range schemes {
		res, err := run(exp, matcher, s, cfg, ropts...)
		if err != nil {
			return nil, err
		}
		r := exp.Evaluate(res)
		t.Rows = append(t.Rows, []string{
			string(s), fmtF(r.PRF.Precision), fmtF(r.PRF.Recall), fmtF(r.PRF.F1),
			fmt.Sprint(r.PRF.TP), fmt.Sprint(r.PRF.FP), fmt.Sprint(r.PRF.FN),
		})
	}
	st := exp.Dataset.ComputeStats()
	cs := exp.Cover.ComputeStats()
	t.Notes = append(t.Notes, fmt.Sprintf("dataset: %s", st))
	t.Notes = append(t.Notes, fmt.Sprintf("cover: %s; matching decisions: %d", cs, len(exp.Candidates)))
	return t, nil
}

// Fig3a: precision/recall/F1 of NO-MP, SMP, MMP and UB for the MLN
// matcher on the HEPTH-like corpus.
func Fig3a(cfg Config) (*Table, error) {
	return accuracyTable("Fig 3(a)", "P/R/F1, MLN matcher, HEPTH-like corpus",
		cem.HEPTH, cem.MatcherMLN,
		[]cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeMMP, cem.SchemeUB}, cfg)
}

// Fig3b: the same on the DBLP-like corpus.
func Fig3b(cfg Config) (*Table, error) {
	return accuracyTable("Fig 3(b)", "P/R/F1, MLN matcher, DBLP-like corpus",
		cem.DBLP, cem.MatcherMLN,
		[]cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeMMP, cem.SchemeUB}, cfg)
}

// Fig3c: completeness of the message-passing schemes. The paper can only
// lower-bound completeness via the UB oracle; our exact solver also
// affords the FULL run, so both references are reported.
func Fig3c(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Fig 3(c)",
		Title:  "completeness of message-passing schemes (MLN matcher)",
		Header: []string{"corpus", "scheme", "vs UB", "vs FULL", "sound vs FULL"},
	}
	for _, kind := range []cem.DatasetKind{cem.HEPTH, cem.DBLP} {
		exp, err := setup(kind, cfg)
		if err != nil {
			return nil, err
		}
		ub, err := run(exp, cem.MatcherMLN, cem.SchemeUB, cfg)
		if err != nil {
			return nil, err
		}
		full, err := run(exp, cem.MatcherMLN, cem.SchemeFull, cfg)
		if err != nil {
			return nil, err
		}
		for _, s := range []cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeMMP} {
			res, err := run(exp, cem.MatcherMLN, s, cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				string(kind), string(s),
				fmtF(eval.Completeness(res.Matches, ub.Matches)),
				fmtF(eval.Completeness(res.Matches, full.Matches)),
				fmtF(eval.Soundness(res.Matches, full.Matches)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"the paper reports completeness vs UB only (full MLN runs were infeasible);",
		"our exact solver affords FULL, against which MMP should be sound and complete (Thm 4 + §6.1)")
	return t, nil
}

// timeTable runs the schemes and tabulates measured and modeled times
// (figures 3d, 3e).
func timeTable(id, title string, kind cem.DatasetKind, cfg Config) (*Table, error) {
	exp, err := setup(kind, cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"scheme", "wall", "matcher", "evals", "active-decisions", "modeled-cost"},
	}
	for _, s := range []cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeMMP} {
		res, err := run(exp, cem.MatcherMLN, s, cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			string(s),
			fmtMs(res.Stats.Elapsed),
			fmtMs(res.Stats.MatcherTime),
			fmt.Sprint(res.Stats.Evaluations),
			fmt.Sprint(res.Stats.TotalActive()),
			fmtCost(modeledCost(res.Stats.ActiveSizes, cfg.CostExponent)),
		})
	}
	t.Notes = append(t.Notes,
		"modeled-cost = Σ active^"+fmt.Sprint(cfg.CostExponent)+" over neighborhood evaluations: the",
		"paper's Alchemy matcher pays superlinear cost per active decision, so fewer active",
		"decisions (more message passing) means lower total time — Fig 3(d)/(e)'s ordering")
	return t, nil
}

// Fig3d: running-time comparison on HEPTH-like (MLN).
func Fig3d(cfg Config) (*Table, error) {
	return timeTable("Fig 3(d)", "running times, MLN matcher, HEPTH-like corpus", cem.HEPTH, cfg)
}

// Fig3e: running-time comparison on DBLP-like (MLN); an order of
// magnitude cheaper than HEPTH due to much smaller neighborhoods.
func Fig3e(cfg Config) (*Table, error) {
	return timeTable("Fig 3(e)", "running times, MLN matcher, DBLP-like corpus", cem.DBLP, cfg)
}

// fig3fShuffles is how many neighborhood orders Fig 3(f) averages over: in
// one order, whether the first prefix holds the large neighborhoods decides.
const fig3fShuffles = 16

// Fig3f: scalability sweep — total time of FULL EM on the union of the
// first k neighborhoods (superlinear blow-up) versus MMP on the same
// prefix (linear in k), averaged over fig3fShuffles orders.
func Fig3f(cfg Config) (*Table, error) {
	exp, err := setup(cem.HEPTH, cfg)
	if err != nil {
		return nil, err
	}
	m, err := mlnOf(exp)
	if err != nil {
		return nil, err
	}
	n := exp.Cover.Len()
	steps := max(2, cfg.Fig3fSteps)
	t := &Table{
		ID:     "Fig 3(f)",
		Title:  "running time vs number of neighborhoods (MLN, HEPTH-like)",
		Header: []string{"k", "decisions", "fullEM-wall", "fullEM-cost", "mmp-wall", "mmp-cost"},
	}
	// Geometric prefix sizes (n/2^(steps-1), …, n/2, n): the interesting
	// superlinear growth happens early, before the heavy-tailed decision
	// distribution saturates.
	ks := make([]int, steps)
	for s := range ks {
		ks[s] = max(1, n>>(steps-1-s))
	}
	type sums struct {
		decisions, fullCost, mmpCost float64
		fullWall, mmpWall            time.Duration
	}
	acc := make([]sums, steps)
	// Canopy construction front-loads the largest neighborhoods (early
	// seeds absorb the big name-clash groups), so prefixes of the raw
	// order are unrepresentative. Shuffle deterministically; the paper's
	// own curve shows large neighborhoods scattered through the order
	// ("whenever a new large neighborhood is included, the running time
	// shows a small jump").
	rng := rand.New(rand.NewSource(cfg.Seed))
	for r := 0; r < fig3fShuffles; r++ {
		sets := slices.Clone(exp.Cover.Sets)
		rng.Shuffle(n, func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
		// The prefix's matching decisions — the paper's unit of work —
		// accumulate neighborhood by neighborhood without double counting.
		seen := core.NewPairSet()
		done := 0
		for s, k := range ks {
			for ; done < k; done++ {
				for _, p := range m.Candidates(sets[done]) {
					seen.Add(p)
				}
			}
			prefix := sets[:k]
			sub := core.NewCover(exp.Cover.NumEntities, prefix)
			cfgCore := core.Config{Cover: sub, Matcher: m, Relation: exp.Dataset.Coauthor()}

			// FULL EM over the union of the prefix's entities: one inference
			// problem spanning all the prefix's matching decisions.
			union := map[core.EntityID]bool{}
			for _, set := range prefix {
				for _, e := range set {
					union[e] = true
				}
			}
			entities := make([]core.EntityID, 0, len(union))
			for e := range union {
				entities = append(entities, e)
			}
			fullStart := time.Now()
			m.Match(entities, nil, nil)
			acc[s].fullWall += time.Since(fullStart)
			acc[s].fullCost += modeledCost([]int{seen.Len()}, cfg.CostExponent)
			acc[s].decisions += float64(seen.Len())

			mmp, err := core.MMP(context.Background(), cfgCore)
			if err != nil {
				return nil, err
			}
			acc[s].mmpWall += mmp.Stats.Elapsed
			acc[s].mmpCost += modeledCost(mmp.Stats.ActiveSizes, cfg.CostExponent)
		}
	}
	const r = fig3fShuffles
	for s, k := range ks {
		a := acc[s]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k),
			fmt.Sprintf("%.1f", a.decisions/r),
			fmtMs(a.fullWall / r),
			fmtCost(a.fullCost / r),
			fmtMs(a.mmpWall / r),
			fmtCost(a.mmpCost / r),
		})
	}
	first, last := acc[0], acc[steps-1]
	t.Notes = append(t.Notes,
		"fullEM treats the first k neighborhoods as ONE inference problem over all their",
		"matching decisions: modeled cost grows as decisions^exp (superlinear in k), while",
		"MMP's cost stays about linear in k — the Fig 3(f) separation; rows average",
		fmt.Sprintf("%d orders, first → last: k ×%.1f, decisions ×%.1f, fullEM ×%.1f, MMP ×%.1f",
			fig3fShuffles, float64(ks[steps-1])/float64(ks[0]), last.decisions/first.decisions,
			last.fullCost/first.fullCost, last.mmpCost/first.mmpCost))
	return t, nil
}

// Table1: grid execution of DBLP-BIG-like — simulated single-machine vs
// G-machine times and the resulting speedup per scheme. Each scheme runs
// on the pool with at least two workers, which maps every round against
// its round-start evidence as the paper's Map jobs do; gridClock then
// replays the run's record on the simulated grid.
func Table1(cfg Config) (*Table, error) {
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("simulated grid: Machines = %d, want > 0", cfg.Machines)
	}
	if cfg.RoundOverhead < 0 {
		return nil, fmt.Errorf("simulated grid: negative RoundOverhead %v", cfg.RoundOverhead)
	}
	d := cem.NewDataset(cem.DBLPBig, cfg.Scale, cfg.Seed)
	exp, err := cem.New(d)
	if err != nil {
		return nil, err
	}
	// Simulated service times follow the Alchemy-like cost model (the
	// paper's single-machine runs took hours on DBLP-BIG; our exact
	// solver is orders of magnitude faster, so measured times would be
	// dominated by scheduling overhead instead of inference).
	unit := float64(time.Millisecond)
	service := func(active int) time.Duration {
		return time.Duration(unit * math.Pow(float64(active), cfg.CostExponent))
	}
	pool := cfg
	pool.Parallelism = max(2, cfg.Parallelism)
	t := &Table{
		ID:     "Table 1",
		Title:  fmt.Sprintf("grid running times, DBLP-BIG-like, %d machines", cfg.Machines),
		Header: []string{"scheme", "single-machine", "grid", "speedup", "rounds", "jobs"},
	}
	for _, s := range []struct {
		name   string
		scheme cem.Scheme
	}{{"NO-MP", cem.SchemeNoMP}, {"SMP", cem.SchemeSMP}, {"MMP", cem.SchemeMMP}} {
		var rounds []int
		res, err := run(exp, cem.MatcherMLN, s.scheme, pool,
			cem.WithProgress(func(e match.ProgressEvent) { rounds = append(rounds, e.Round) }))
		if err != nil {
			return nil, err
		}
		single, grid, n := gridClock(rounds, res.Stats.ActiveSizes, cfg, service)
		speedup := 0.0
		if grid > 0 {
			speedup = float64(single) / float64(grid)
		}
		t.Rows = append(t.Rows, []string{
			s.name,
			single.Round(time.Millisecond).String(),
			grid.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", speedup),
			fmt.Sprint(n),
			fmt.Sprint(len(rounds)),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("dataset: %s", d.ComputeStats()),
		"speedup < machine count: random job assignment skews per-machine load and every",
		"round pays a fixed scheduling overhead — the paper's explanation for 11× on 30 machines")
	return t, nil
}

// gridClock replays a run on Table 1's simulated grid of cfg.Machines
// machines (§6.3): evaluation i, of round rounds[i] and active size
// sizes[i] (both in reduce order), is charged service(sizes[i]) on a
// machine drawn from a fresh cfg.Seed source; a round costs its busiest
// machine plus cfg.RoundOverhead, and the single machine pays every
// evaluation plus one overhead per round. Random assignment skew plus the
// per-round overhead is the paper's explanation for ~11× (not 30×) on 30
// machines. A round whose re-activations were all skipped evaluated
// nothing and is not counted: skipped re-activations cost nothing.
func gridClock(rounds, sizes []int, cfg Config, service func(int) time.Duration) (single, grid time.Duration, nRounds int) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	load := make([]time.Duration, cfg.Machines)
	for i := 0; i < len(sizes); nRounds++ {
		clear(load)
		var total time.Duration
		for r := rounds[i]; i < len(sizes) && rounds[i] == r; i++ {
			c := service(sizes[i])
			load[rng.Intn(len(load))] += c
			total += c
		}
		single += total + cfg.RoundOverhead
		grid += slices.Max(load) + cfg.RoundOverhead
	}
	return single, grid, nRounds
}

// Fig4a: RULES accuracy on HEPTH-like (NO-MP, SMP, FULL).
func Fig4a(cfg Config) (*Table, error) {
	return accuracyTable("Fig 4(a)", "P/R/F1, RULES matcher, HEPTH-like corpus",
		cem.HEPTH, cem.MatcherRules,
		[]cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeFull}, cfg)
}

// Fig4b: RULES accuracy on DBLP-like.
func Fig4b(cfg Config) (*Table, error) {
	return accuracyTable("Fig 4(b)", "P/R/F1, RULES matcher, DBLP-like corpus",
		cem.DBLP, cem.MatcherRules,
		[]cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeFull}, cfg)
}

// Fig4c: RULES running times on both corpora. RULES is a fast linear
// matcher, so — unlike MLN — SMP does not beat NO-MP, and FULL is cheap.
func Fig4c(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Fig 4(c)",
		Title:  "running times, RULES matcher",
		Header: []string{"corpus", "scheme", "wall", "matcher", "evals"},
	}
	for _, kind := range []cem.DatasetKind{cem.HEPTH, cem.DBLP} {
		exp, err := setup(kind, cfg)
		if err != nil {
			return nil, err
		}
		for _, s := range []cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeFull} {
			res, err := run(exp, cem.MatcherRules, s, cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				string(kind), string(s),
				fmtMs(res.Stats.Elapsed),
				fmtMs(res.Stats.MatcherTime),
				fmt.Sprint(res.Stats.Evaluations),
			})
		}
	}
	t.Notes = append(t.Notes,
		"RULES has linear complexity, so savings from smaller active neighborhoods do not",
		"offset revisit costs: SMP ≥ NO-MP in time (Appendix C)")
	return t, nil
}

// AblationCover sweeps the cover-construction knob DESIGN.md calls out:
// how much relational context each neighborhood absorbs (MaxAligned
// aligned partner pairs; FullBoundary = everything), with each cover's
// size — its neighborhoods and Σ|C|. It shows the trade the paper's
// Figure 3(d) sits on: more shared context closes the recall gaps message
// passing otherwise buys, at the price of larger neighborhoods, while
// low-overlap covers fragment collective cliques, so message passing is
// what buys *recall*.
func AblationCover(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "Ablation",
		Title: "cover context vs accuracy and modeled cost (MLN, HEPTH-like)",
		Header: []string{"cover", "scheme", "R", "P",
			"active-decisions", "modeled-cost", "neighborhoods", "sum|C|"},
	}
	d := cem.NewDataset(cem.HEPTH, cfg.Scale, cfg.Seed)
	for _, v := range coverVariants {
		exp, err := v.experiment(d)
		if err != nil {
			return nil, err
		}
		cs := exp.Cover.ComputeStats()
		for _, s := range []cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP, cem.SchemeMMP} {
			res, err := run(exp, cem.MatcherMLN, s, cfg)
			if err != nil {
				return nil, err
			}
			r := exp.Evaluate(res)
			t.Rows = append(t.Rows, []string{
				v.name, string(s), fmtF(r.PRF.Recall), fmtF(r.PRF.Precision),
				fmt.Sprint(res.Stats.TotalActive()),
				fmtCost(modeledCost(res.Stats.ActiveSizes, cfg.CostExponent)),
				fmt.Sprint(cs.Neighborhoods), fmt.Sprint(cs.TotalEntries),
			})
		}
	}
	t.Notes = append(t.Notes,
		"more shared context (aligned-2, full-boundary): larger neighborhoods and the recall",
		"gaps close; fragmented covers (edge-greedy, aligned-1) show the opposite: message",
		"passing buys recall. Every cover keeps only neighborhoods contained in no other, so",
		"no scheme's modeled cost includes re-evaluating a subsumed neighborhood")
	return t, nil
}

// coverVariant is one cover construction AblationCover sweeps.
type coverVariant struct {
	name       string
	maxAligned int
	full       bool
}

var coverVariants = []coverVariant{
	{"edge-greedy", 0, false},
	{"aligned-1", 1, false},
	{"aligned-2", 2, false},
	{"full-boundary", 0, true},
}

// experiment wires d over the variant's cover.
func (v coverVariant) experiment(d *match.Dataset) (*cem.Experiment, error) {
	canopy := cem.DefaultOptions().Canopy
	canopy.MaxAligned = v.maxAligned
	canopy.FullBoundary = v.full
	return cem.New(d, cem.WithCanopy(canopy))
}

// LearnedWeights trains the MLN rule weights with the structured
// perceptron (our substitution for the paper's Alchemy weight learning,
// Appendix B) on one corpus and evaluates them against the paper's
// learned weights on a held-out corpus from the same distribution.
func LearnedWeights(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Learning",
		Title:  "paper weights vs perceptron-learned weights (MLN, SMP)",
		Header: []string{"corpus", "weights", "P", "R", "F1"},
	}
	for _, kind := range []cem.DatasetKind{cem.HEPTH, cem.DBLP} {
		train, err := setup(kind, cfg)
		if err != nil {
			return nil, err
		}
		trainM, err := mlnOf(train)
		if err != nil {
			return nil, err
		}
		learned, err := mln.Learn(trainM, train.Cover, train.Truth(), mln.DefaultLearnConfig())
		if err != nil {
			return nil, err
		}
		// Held-out corpus: same distribution, different seed.
		heldCfg := cfg
		heldCfg.Seed = cfg.Seed + 1000
		held, err := setup(kind, heldCfg)
		if err != nil {
			return nil, err
		}
		// The runs below build their runners on held's cached instance,
		// so setting its weights reweights them.
		heldM, err := mlnOf(held)
		if err != nil {
			return nil, err
		}
		for _, variant := range []struct {
			name string
			w    mln.Weights
		}{
			{"paper", mln.PaperWeights()},
			{"learned", learned},
		} {
			if err := heldM.SetWeights(variant.w); err != nil {
				return nil, err
			}
			res, err := run(held, cem.MatcherMLN, cem.SchemeSMP, cfg)
			if err != nil {
				return nil, err
			}
			r := held.Evaluate(res)
			t.Rows = append(t.Rows, []string{
				string(kind), variant.name,
				fmtF(r.PRF.Precision), fmtF(r.PRF.Recall), fmtF(r.PRF.F1),
			})
		}
		if err := heldM.SetWeights(mln.PaperWeights()); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes,
		"weights trained on one corpus, evaluated on a held-out corpus of the same kind;",
		"the paper trained with Alchemy — the perceptron is our documented substitution")
	return t, nil
}

// Scaling sweeps the corpus size and reports how SMP and MMP grow — the
// paper's central scalability claim is time linear in the number of
// neighborhoods (Theorems 3 and 5 plus the §6.2 measurements). Each row
// doubles the scale; near-constant cost/neighborhood columns are the
// linearity evidence.
func Scaling(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "Scaling",
		Title: "scheme cost vs corpus size (MLN, DBLP-like)",
		Header: []string{"scale", "refs", "neighborhoods", "decisions",
			"smp-evals", "smp-cost/nbhd", "mmp-evals", "mmp-cost/nbhd"},
	}
	for _, mult := range []float64{0.5, 1, 2, 4} {
		sub := cfg
		sub.Scale = cfg.Scale * mult
		exp, err := setup(cem.DBLP, sub)
		if err != nil {
			return nil, err
		}
		smp, err := run(exp, cem.MatcherMLN, cem.SchemeSMP, sub)
		if err != nil {
			return nil, err
		}
		mmp, err := run(exp, cem.MatcherMLN, cem.SchemeMMP, sub)
		if err != nil {
			return nil, err
		}
		n := float64(exp.Cover.Len())
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2g", sub.Scale),
			fmt.Sprint(exp.Dataset.NumRefs()),
			fmt.Sprint(exp.Cover.Len()),
			fmt.Sprint(len(exp.Candidates)),
			fmt.Sprint(smp.Stats.Evaluations),
			fmt.Sprintf("%.1f", modeledCost(smp.Stats.ActiveSizes, cfg.CostExponent)/n),
			fmt.Sprint(mmp.Stats.Evaluations),
			fmt.Sprintf("%.1f", modeledCost(mmp.Stats.ActiveSizes, cfg.CostExponent)/n),
		})
	}
	t.Notes = append(t.Notes,
		"cost/neighborhood staying ~flat while the corpus quadruples is the linear-",
		"scalability claim of Theorems 3/5: total cost grows with n, not with n²")
	return t, nil
}

// All runs every experiment in paper order, plus the extensions.
func All(cfg Config) ([]*Table, error) {
	runs := []func(Config) (*Table, error){
		Fig3a, Fig3b, Fig3c, Fig3d, Fig3e, Fig3f, Table1, Fig4a, Fig4b, Fig4c,
		AblationCover, LearnedWeights, Scaling,
	}
	out := make([]*Table, 0, len(runs))
	for _, run := range runs {
		t, err := run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
