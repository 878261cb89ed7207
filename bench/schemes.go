package main

import (
	"context"
	"math"

	cem "repro"
	"repro/internal/eval"
	"repro/internal/wire"
	"repro/match"
)

// hepth-schemes is the paper's own measurement: the running time of the
// schemes given a cover. Blocking and candidate enumeration happen in the
// un-timed cem.New of every repetition (and so land in setup_s); one
// operation is six scheme runs back to back on that fresh experiment.
const (
	schemesScale      = 0.4
	schemesSmokeScale = 0.15
	schemesPool       = 24 // corpora per untraced run (at refSeconds)
	schemesTracedPool = 20 // corpora per traced run
)

// schemeRun is one of the six runs of an operation.
type schemeRun struct {
	name    string // span name and key of the result
	metric  string // per-layer wall metric
	scheme  cem.Scheme
	matcher string
	opts    func() []cem.RunnerOption
}

// The four pool runs are serial (parallelism 1): the paper's setting, and
// the one in which wall minus matcher time is the engine's own time. Both
// sharded backends run K = 2; sharded-net spawns its workers in-process, so
// every byte still crosses the wire codec.
var schemeRuns = []schemeRun{
	{"nomp-mln", "core.nomp_s", cem.SchemeNoMP, cem.MatcherMLN, nil},
	{"smp-mln", "core.smp_s", cem.SchemeSMP, cem.MatcherMLN, nil},
	{"mmp-mln", "core.mmp_s", cem.SchemeMMP, cem.MatcherMLN, nil},
	{"smp-rules", "core.smp_rules_s", cem.SchemeSMP, cem.MatcherRules, nil},
	{"smp-mln-sharded", "core.sharded_smp_s", cem.SchemeSMP, cem.MatcherMLN,
		func() []cem.RunnerOption { return []cem.RunnerOption{cem.WithShardCount(2)} }},
	{"smp-mln-sharded-net", "net.smp_s", cem.SchemeSMP, cem.MatcherMLN,
		func() []cem.RunnerOption { return []cem.RunnerOption{cem.WithBackend(cem.NewShardedNetBackend(2))} }},
}

// schemesOp runs the six schemes on exp, each in a span of tr; a nil tracer
// costs two clock reads per run.
func schemesOp(tr *tracer, exp *cem.Experiment) (results map[string]*cem.Result, walls map[string]float64, err error) {
	results, walls = map[string]*cem.Result{}, map[string]float64{}
	for _, r := range schemeRuns {
		var opts []cem.RunnerOption
		if r.opts != nil {
			opts = r.opts()
		}
		runner, rerr := exp.Runner(r.matcher, opts...)
		if rerr != nil {
			return nil, nil, rerr
		}
		walls[r.name] = tr.do("core."+r.name, func() {
			results[r.name], err = runner.Run(context.Background(), r.scheme)
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return results, walls, nil
}

// schemesSetup generates corpus i and builds a fresh experiment on it: fresh
// so the MLN verdict memo is cold (repeated runs on one experiment are partly
// warm). Returns the set-up's wall seconds; at tens of milliseconds it runs
// once per repetition.
func schemesSetup(e *env, i int) (d *match.Dataset, exp *cem.Experiment, setup float64, err error) {
	scale := schemesScale
	if e.smoke {
		scale = schemesSmokeScale
	}
	setup, err = setUp(1, func() (err error) {
		if d, err = cem.GenerateDataset(cem.HEPTH, scale, e.corpusSeed(i)); err == nil {
			exp, err = cem.New(d)
		}
		return err
	}, nil)
	return d, exp, setup, err
}

// checkSchemes holds the paper's guarantees on one operation's results:
// SMP ⊆ MMP, and every backend produces SMP's match set.
func checkSchemes(e *env, i int, res map[string]*cem.Result) {
	smp := res["smp-mln"].Matches
	subset := true
	for p := range smp.All() {
		if !res["mmp-mln"].Matches.Has(p) {
			subset = false
			break
		}
	}
	e.check(subset, "corpus %d: SMP ⊄ MMP", i)
	want := renderMatches(smp)
	e.check(renderMatches(res["smp-mln-sharded"].Matches) == want, "corpus %d: sharded K=2 differs from the pool backend", i)
	e.check(renderMatches(res["smp-mln-sharded-net"].Matches) == want, "corpus %d: sharded-net K=2 differs from the pool backend", i)
}

// schemesRep is one untraced repetition on corpus i: the reference
// operation of both modes.
type schemesRep struct {
	d     *match.Dataset
	f1    eval.PRF // of SMP × mln
	setup float64
	cost
}

func schemesReference(e *env, i int) (*schemesRep, error) {
	d, exp, setup, err := schemesSetup(e, i)
	if err != nil {
		return nil, err
	}
	var res map[string]*cem.Result
	c, err := timed(func() (err error) { res, _, err = schemesOp(nil, exp); return })
	if err != nil {
		return nil, err
	}
	checkSchemes(e, i, res)
	e.sameOutput(i, renderMatches(res["smp-mln"].Matches), "SMP × mln")
	return &schemesRep{d: d, f1: exp.Evaluate(res["smp-mln"]).PRF, setup: setup, cost: c}, nil
}

func runSchemes(e *env) error {
	var err error
	if e.traced {
		if _, err = schemesReference(e, 0); err != nil { // discarded: warms the process up
			return err
		}
		err = e.tracePool(schemesTracedPool, func(i int) error {
			r, err := schemesReference(e, i)
			if err != nil {
				return err
			}
			e.add("cem.untraced_wall_s", r.wall)
			e.add("cem.alloc_mb_per_run", r.allocMB)
			e.add("cem.gc_count_per_run", r.gcs)
			return schemesTraced(e, i, r.d, r.wall)
		})
		e.set("cem.peak_rss_mb", peakRSSMB())
	} else {
		var f1 prfPool
		err = e.measurePool(schemesPool, func(i, pass int) (map[string]float64, error) {
			r, err := schemesReference(e, i)
			if err != nil {
				return nil, err
			}
			if pass == 0 {
				f1.add(r.f1)
			}
			return map[string]float64{"setup_s": r.setup, "op_wall_s": r.wall, "cpu_s": r.cpu, "alloc_mb": r.allocMB}, nil
		})
		e.set("pair_f1", f1.f1())
	}
	if err != nil {
		return err
	}
	e.checkExpected()
	return nil
}

// schemesTraced repeats the operation on another fresh experiment with a
// span around every run, then times the layers that only set-up touches
// here (blocking, candidates, grounding) and the wire codec.
func schemesTraced(e *env, i int, d *match.Dataset, untraced float64) error {
	var exp *cem.Experiment
	var err error
	e.tr.do("setup.cem.New", func() { exp, err = cem.New(d) })
	if err != nil {
		return err
	}
	var res map[string]*cem.Result
	var walls map[string]float64
	wall := e.tr.do("op.schemes", func() { res, walls, err = schemesOp(e.tr, exp) })
	if err != nil {
		return err
	}
	checkSchemes(e, i, res)

	stages, self, calls, busy := 0.0, 0.0, 0, 0.0
	var memo match.CacheReport
	for _, r := range schemeRuns {
		w, s := walls[r.name], res[r.name].Stats
		e.add(r.metric, w)
		stages += w
		if r.opts != nil {
			continue
		}
		self += w - s.MatcherTime.Seconds()
		if r.matcher == cem.MatcherMLN {
			calls += s.MatcherCalls
			busy += s.MatcherTime.Seconds()
			memo.Hits += s.Cache.Hits
			memo.Misses += s.Cache.Misses
			memo.Invalidations += s.Cache.Invalidations
		}
	}
	e.add("core.rounds_s", stages)
	e.add("core.engine_self_s", self)
	e.add("cem.stage_sum_s", stages)
	e.add("cem.attribution_gap", ratio(math.Abs(untraced-stages), untraced))
	e.add("cem.trace_overhead_ratio", ratio(wall, untraced))
	e.add("mln.match_calls", float64(calls))
	e.add("mln.match_busy_s", busy)
	e.add("mln.memo_hit_ratio", memo.HitRate())
	e.add("rules.match_calls", float64(res["smp-rules"].Stats.MatcherCalls))
	e.add("rules.match_busy_s", res["smp-rules"].Stats.MatcherTime.Seconds())
	coreCounters(e, res["smp-mln"].Stats)
	e.add("core.maximal_messages", float64(res["mmp-mln"].Stats.MaximalMessages))
	e.add("core.promoted_sets", float64(res["mmp-mln"].Stats.PromotedSets))
	net := res["smp-mln-sharded-net"].Stats
	e.add("net.overhead_ratio", ratio(walls["smp-mln-sharded-net"], walls["smp-mln-sharded"]))
	e.add("net.retried_sends", float64(net.RetriedSends))
	e.add("net.reassignments", float64(net.Reassignments))

	if err := wireCodec(e, res["smp-mln"].Matches); err != nil {
		return err
	}
	var st *staged
	e.tr.do("setup.staged", func() { st, err = stagedSetup(e, cem.RecordsFromDataset(d), nil) })
	if err != nil {
		return err
	}
	if i == 0 {
		kernels(e, st.d, st.cover, cem.DefaultOptions().Canopy.Q)
	}
	return canopyAndSpeedups(e, st)
}

// wireCodec times the binary codec over a match set, as the one evidence
// delta and the one shard batch that would carry it between shards.
func wireCodec(e *env, matches match.PairSet) error {
	sorted := matches.SortedKeys()
	if len(sorted) == 0 {
		return nil
	}
	keys := make([]uint64, len(sorted))
	for i, k := range sorted {
		keys[i] = uint64(k)
	}
	delta := &wire.Delta{Round: 1, Keys: keys}
	batch := &wire.ShardBatch{Round: 1, Jobs: []wire.Job{{ID: 0, Active: len(keys), Calls: 1, Matches: keys}}}
	const reps = 20
	var err error
	var db, bb []byte
	enc := e.tr.do("aux.wire.Marshal", func() {
		for r := 0; r < reps && err == nil; r++ {
			if db, err = delta.Marshal(wire.Binary); err == nil {
				bb, err = batch.Marshal(wire.Binary)
			}
		}
	})
	if err != nil {
		return err
	}
	dec := e.tr.do("aux.wire.Unmarshal", func() {
		for r := 0; r < reps && err == nil; r++ {
			if _, err = wire.UnmarshalDelta(db); err == nil {
				_, err = wire.UnmarshalShardBatch(bb)
			}
		}
	})
	if err != nil {
		return err
	}
	pairs := float64(2 * reps * len(keys)) // each key crosses the codec twice per repetition
	e.add("wire.delta_encode_ns_per_pair", enc*1e9/pairs)
	e.add("wire.delta_decode_ns_per_pair", dec*1e9/pairs)
	e.add("wire.bytes_per_pair", float64(len(db)+len(bb))/float64(2*len(keys)))
	return nil
}
