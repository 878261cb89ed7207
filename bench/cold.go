package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	cem "repro"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/eval"
)

// coldSpec is a cold-run workload: one operation is a cold cem.NewPipeline
// plus Pipeline.Run over a fresh corpus (records → blocking → cover →
// candidates → grounding → rounds → metrics).
type coldSpec struct {
	kind       cem.DatasetKind
	scale      float64
	smokeScale float64
	scheme     cem.Scheme
	rulesFile  string // under the repository root; empty runs the built-in mln matcher
	pool       int    // corpora per untraced run (at refSeconds)
	tracedPool int    // corpora per traced run
}

// Scales are sized so one operation takes a few hundred milliseconds on the
// 2-core reference box and a window holds tens of corpora; README gives the
// sizing evidence.
var (
	hepthCold  = coldSpec{kind: cem.HEPTH, scale: 0.5, smokeScale: 0.15, scheme: cem.SchemeSMP, pool: 46, tracedPool: 40}
	dblpCold   = coldSpec{kind: cem.DBLP, scale: 1.0, smokeScale: 0.15, scheme: cem.SchemeMMP, pool: 18, tracedPool: 11}
	peopleCold = coldSpec{kind: cem.People, scale: 0.7, smokeScale: 0.2, scheme: cem.SchemeSMP, rulesFile: "testdata/rules/people.rules", pool: 22, tracedPool: 12}
)

// rulesMatcher is the compiled rules program a workload matches with.
type rulesMatcher struct {
	src  string
	prog *cem.RuleProgram // the registered compilation
}

// loadRules reads the workload's rules file and registers its program.
func (s coldSpec) loadRules(e *env) (*rulesMatcher, error) {
	if s.rulesFile == "" {
		return nil, nil
	}
	src, err := os.ReadFile(filepath.Join(e.root, s.rulesFile))
	if err != nil {
		return nil, err
	}
	prog, err := cem.CompileRuleProgram(string(src))
	if err != nil {
		return nil, err
	}
	// Registration is per process; a process that runs the workload twice
	// (the smoke test) registers once.
	if !slices.Contains(cem.Matchers(), prog.Name()) {
		if err := cem.RegisterRuleProgram(prog); err != nil {
			return nil, err
		}
	}
	return &rulesMatcher{src: string(src), prog: prog}, nil
}

func (s coldSpec) matcherName(rm *rulesMatcher) string {
	if rm != nil {
		return rm.prog.Name()
	}
	return cem.MatcherMLN
}

// coldSetUps is how many times a repetition's millisecond of set-up runs.
const coldSetUps = 5

// corpus sets up repetition i: generates its corpus and, for a rules
// workload, compiles the program again (a user pays both before every cold
// run). It returns the set-up's wall seconds.
func (s coldSpec) corpus(e *env, i int, rm *rulesMatcher) (recs []cem.Record, setup float64, err error) {
	scale := s.scale
	if e.smoke {
		scale = s.smokeScale
	}
	setup, err = setUp(coldSetUps, func() (err error) {
		if recs, err = cem.GenerateRecords(s.kind, scale, e.corpusSeed(i)); err != nil || rm == nil {
			return err
		}
		e.add("ruleslang.compile_s", e.tr.do("ruleslang.CompileRuleProgram", func() { _, err = cem.CompileRuleProgram(rm.src) }))
		return err
	}, nil)
	return recs, setup, err
}

// pipelineRun is the operation under test.
func (s coldSpec) pipelineRun(e *env, matcher string, recs []cem.Record) (*cem.PipelineResult, error) {
	p, err := cem.NewPipeline(cem.WithMatcher(matcher), cem.WithScheme(s.scheme), cem.WithShards(e.procs),
		cem.WithRunnerOptions(cem.WithParallelism(e.procs)))
	if err != nil {
		return nil, err
	}
	return p.Run(context.Background(), recs)
}

func (s coldSpec) run(e *env) error {
	rm, err := s.loadRules(e)
	if err != nil {
		return err
	}
	if e.traced {
		err = s.traced(e, rm)
	} else {
		matcher := s.matcherName(rm)
		var f1 prfPool
		err = e.measurePool(s.pool, func(i, pass int) (map[string]float64, error) {
			recs, setup, err := s.corpus(e, i, rm)
			if err != nil {
				return nil, err
			}
			var res *cem.PipelineResult
			c, err := timed(func() (err error) { res, err = s.pipelineRun(e, matcher, recs); return })
			if err != nil {
				return nil, err
			}
			e.sameOutput(i, renderMatches(res.Matches), "Pipeline.Run")
			e.check(res.Labeled && res.Report != nil, "corpus %d: no report against gold", i)
			if pass == 0 && res.Report != nil {
				f1.add(res.Report.PRF)
			}
			return map[string]float64{"setup_s": setup, "op_wall_s": c.wall, "cpu_s": c.cpu, "alloc_mb": c.allocMB}, nil
		})
		e.set("pair_f1", f1.f1())
	}
	if err != nil {
		return err
	}
	e.checkExpected()
	return nil
}

// traced is the per-layer run: on every corpus the untraced operation runs
// first, then the same path stage by stage with a span at each boundary; the
// two must produce the same matches, and the stages must account for the
// untraced wall.
func (s coldSpec) traced(e *env, rm *rulesMatcher) error {
	matcher := s.matcherName(rm)
	// A discarded run on corpus 0 warms the process up (heap growth, page
	// faults), so the first untraced wall compares with its stages.
	recs0, _, err := s.corpus(e, 0, rm)
	if err != nil {
		return err
	}
	warm, err := s.pipelineRun(e, matcher, recs0)
	if err != nil {
		return err
	}
	kernels(e, warm.Experiment.Dataset, warm.Experiment.Cover, cem.DefaultOptions().Canopy.Q)

	var untraced, stages float64
	err = e.tracePool(s.tracedPool, func(i int) error {
		recs, _, err := s.corpus(e, i, rm)
		if err != nil {
			return err
		}
		var res *cem.PipelineResult
		c, err := timed(func() (err error) { res, err = s.pipelineRun(e, matcher, recs); return })
		if err != nil {
			return err
		}
		wall := c.wall
		e.add("cem.alloc_mb_per_run", c.allocMB)
		e.add("cem.gc_count_per_run", c.gcs)
		e.sameOutput(i, renderMatches(res.Matches), "Pipeline.Run")

		st, err := s.staged(e, rm, recs)
		if err != nil {
			return err
		}
		e.sameOutput(i, renderMatches(st.res.Matches), "the staged run")
		e.add("cem.untraced_wall_s", wall)
		e.add("cem.stage_sum_s", st.stages)
		e.add("cem.trace_overhead_ratio", st.wall/wall)
		untraced += wall
		stages += st.stages
		return canopyAndSpeedups(e, st)
	})
	if err != nil {
		return err
	}
	// Pooled over the corpora, each of which ran both ways.
	gap := math.Abs(untraced-stages) / untraced
	e.set("cem.attribution_gap", gap)
	if !e.smoke { // a smoke run's stages take microseconds
		e.check(gap <= 0.15, "stages sum to %.3fs but the untraced runs took %.3fs: gap %.3f > 0.15", stages, untraced, gap)
	}
	e.set("cem.peak_rss_mb", peakRSSMB())
	return nil
}

// staged re-executes one cold run through the layers' public functions.
func (s coldSpec) staged(e *env, rm *rulesMatcher, recs []cem.Record) (*staged, error) {
	var st *staged
	var err error
	var prog *cem.RuleProgram
	if rm != nil {
		prog = rm.prog
	}
	wall := e.tr.do("cem.Pipeline.Run", func() {
		if st, err = stagedSetup(e, recs, prog); err != nil {
			return
		}
		var m core.Matcher = st.mln
		prefix := "mln"
		if rm != nil {
			m, prefix = st.named, "ruleslang"
		}
		st.stage(e, "core.rounds", "core.rounds_s", func() { st.res, err = st.rounds(s.scheme, m, e.procs) })
		if err != nil {
			return
		}
		st.evaluate(e)
		rs := st.res.Stats
		coreCounters(e, rs)
		e.add("core.maximal_messages", float64(rs.MaximalMessages))
		e.add("core.promoted_sets", float64(rs.PromotedSets))
		e.add(prefix+".match_calls", float64(rs.MatcherCalls))
		e.add(prefix+".match_busy_s", rs.MatcherTime.Seconds())
		if rm == nil {
			e.add("mln.memo_hit_ratio", rs.Cache.HitRate())
		}
	})
	if err != nil {
		return nil, err
	}
	st.wall = wall
	return st, nil
}

// canopyAndSpeedups times, outside the stage sum, what the staged run cannot
// see from outside the program. The canopies are the first half of
// BuildCoverContext: they are called once more on their own, and the finish
// (totality patching, aligned context) is the remainder. Then what sharding
// and parallelism buy on this corpus: the canopies at one shard against
// procs, and SMP × mln at parallelism one against procs, each on a freshly
// grounded matcher so no verdict is memoized. Both are ≈ 1 on a 1-core box.
func canopyAndSpeedups(e *env, st *staged) error {
	cfg := cem.DefaultOptions().Canopy
	var err error
	var walls [2]float64
	for k, shards := range []int{e.procs, 1} {
		walls[k] = e.tr.do(fmt.Sprintf("aux.canopy.CanopiesContext.shards=%d", shards), func() {
			_, err = canopy.CanopiesContext(context.Background(), st.names, cfg, shards)
		})
		if err != nil {
			return err
		}
	}
	e.add("canopy.canopies_s", walls[0])
	e.add("canopy.cover_finish_s", max(st.buildCover-walls[0], 0))
	e.add("canopy.shard_speedup", ratio(walls[1], walls[0]))

	for k, par := range []int{1, e.procs} {
		m, err := st.newMLN()
		if err != nil {
			return err
		}
		if k == 0 {
			e.add("mln.prepare_cover_s", e.tr.do("aux.mln.PrepareCover", func() { m.PrepareCover(st.cover) }))
		}
		walls[k] = e.tr.do(fmt.Sprintf("aux.core.SMP.parallelism=%d", par), func() { _, err = st.rounds(cem.SchemeSMP, m, par) })
		if err != nil {
			return err
		}
	}
	e.add("core.parallel_speedup", ratio(walls[0], walls[1]))
	return nil
}

// prfPool pools pairwise counts over corpora, so the reported F1 is that of
// the whole population matched in the window.
type prfPool struct{ tp, fp, fn int }

func (p *prfPool) add(r eval.PRF) { p.tp += r.TP; p.fp += r.FP; p.fn += r.FN }

func (p *prfPool) f1() float64 {
	return ratio(2*float64(p.tp), float64(2*p.tp+p.fp+p.fn))
}

// renderMatches is the canonical rendering of a match set (the form of
// serve's Committed.RenderMatches and the golden fixtures).
func renderMatches(m core.PairSet) string {
	var b strings.Builder
	pairs := m.Sorted()
	fmt.Fprintf(&b, "# %d matches\n", len(pairs))
	for _, p := range pairs {
		fmt.Fprintf(&b, "%d %d\n", p.A, p.B)
	}
	return b.String()
}

func digestOf(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

//go:embed expected.json
var expectedJSON []byte

// sameOutput holds the matches a corpus produced to the ones it produced the
// first time in this run: every pass, and the staged run, must agree.
func (e *env) sameOutput(i int, rendering, who string) {
	d := digestOf(rendering)
	for len(e.outputs) <= i {
		e.outputs = append(e.outputs, "")
	}
	if e.outputs[i] == "" {
		e.outputs[i] = d
		return
	}
	e.check(e.outputs[i] == d, "corpus %d: %s produced other matches than the first run on it", i, who)
}

// digest identifies the run's output: the matches of corpus 0.
func (e *env) digest() string {
	if len(e.outputs) == 0 {
		return ""
	}
	return e.outputs[0]
}

// checkExpected compares the run's output digest with the one committed for
// the default seed, so a change to any layer that alters the matches shows up
// as a failed operation, not as a different timing.
func (e *env) checkExpected() {
	if e.seed != 42 || e.smoke {
		return
	}
	var want map[string]string
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		e.check(false, "expected.json: %v", err)
		return
	}
	e.check(e.digest() == want[e.workload], "seed 42 output digest %s, expected.json has %q", e.digest(), want[e.workload])
}
