package main

import (
	"context"
	"fmt"
	"math/rand"

	cem "repro"
	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/mln"
	"repro/internal/rules"
	"repro/internal/similarity"
	"repro/match"
)

// staged is what the stage-by-stage re-execution of Pipeline.Run builds:
// the same objects the pipeline wires internally, made here through each
// layer's public functions so that a span can sit at every boundary.
type staged struct {
	d          *bib.Dataset
	names      []string
	cover      *core.Cover
	sp         []canopy.SimilarPair
	mln        *mln.Matcher
	rules      *rules.Matcher
	named      core.Matcher // the rules-file matcher, when the workload runs one
	truth      core.PairSet
	res        *core.Result
	buildCover float64 // wall of canopy.BuildCoverContext
	stages     float64 // Σ of the stage spans: the figure that must equal the untraced wall
	wall       float64 // the enclosing span: stages + span bookkeeping
}

// stage runs f in a span, records its wall as a sample of metric (when
// named) and adds it to the stage sum.
func (st *staged) stage(e *env, spanName, metricName string, f func()) float64 {
	w := e.tr.do(spanName, f)
	if metricName != "" {
		e.add(metricName, w)
	}
	st.stages += w
	return w
}

// toBib lowers generated records (always cem.BasicRecord) to the internal
// flat form, as Pipeline.Run does before it synthesizes the dataset.
func toBib(recs []cem.Record) []bib.Record {
	raw := make([]bib.Record, len(recs))
	for i, r := range recs {
		b := r.(cem.BasicRecord)
		raw[i] = bib.Record{Name: b.Key, Group: b.Group, Gold: b.Gold}
	}
	return raw
}

// stagedSetup re-executes records → dataset → cover → candidates → grounded
// matchers, the part of a cold run that precedes the rounds (cem.setup).
// prog, when set, is grounded too, as Experiment.Runner does for a
// registered rules program.
func stagedSetup(e *env, recs []cem.Record, prog *cem.RuleProgram) (*staged, error) {
	st := &staged{}
	cfg := cem.DefaultOptions().Canopy
	raw := toBib(recs)
	var err error
	st.stage(e, "bib.DatasetFromRecords", "bib.dataset_s", func() {
		st.d, err = bib.DatasetFromRecords("records", raw)
	})
	if err != nil {
		return nil, err
	}
	st.names = make([]string, st.d.NumRefs())
	for i := range st.d.Refs {
		st.names[i] = st.d.Refs[i].Name
	}
	st.buildCover = st.stage(e, "canopy.BuildCoverContext", "", func() {
		st.cover, err = canopy.BuildCoverContext(context.Background(), st.d, cfg, e.procs)
	})
	if err != nil {
		return nil, err
	}

	st.stage(e, "canopy.CandidatePairs", "canopy.candidates_s", func() {
		st.sp = canopy.CandidatePairs(st.d, st.cover)
	})
	scanned := 0
	for _, set := range st.cover.Sets {
		scanned += len(set) * (len(set) - 1) / 2
	}
	cs := st.cover.ComputeStats()
	e.add("canopy.pairs_scanned", float64(scanned))
	e.add("canopy.candidates", float64(len(st.sp)))
	e.add("canopy.candidate_yield", ratio(float64(len(st.sp)), float64(scanned)))
	e.add("canopy.neighborhoods", float64(cs.Neighborhoods))
	e.add("canopy.max_neighborhood", float64(cs.MaxSize))

	st.stage(e, "cem.truth", "", func() {
		st.truth = core.NewPairSet()
		for p := range st.d.TruePairs() {
			st.truth.Add(core.MakePair(p[0], p[1]))
		}
	})
	// Every pipeline grounds both built-in matchers, whichever one runs.
	st.stage(e, "mln.New", "mln.ground_s", func() {
		st.mln, err = st.newMLN()
	})
	if err != nil {
		return nil, err
	}
	st.stage(e, "rules.New", "rules.ground_s", func() {
		rc := make([]rules.Candidate, len(st.sp))
		for i, c := range st.sp {
			rc[i] = rules.Candidate{Pair: c.Pair, Level: c.Level}
		}
		_, err = rules.New(st.d, rc, rules.PaperRules())
	})
	if err != nil {
		return nil, err
	}
	if prog != nil {
		st.stage(e, "ruleslang.NewMatcher", "ruleslang.ground_s", func() {
			mc := cem.MatcherContext{Dataset: st.d, Options: cem.DefaultOptions()}
			mc.Candidates = make([]match.Candidate, len(st.sp))
			for i, c := range st.sp {
				mc.Candidates[i] = match.Candidate{Pair: c.Pair, Level: c.Level}
			}
			st.named, err = prog.Factory()(mc)
		})
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// newMLN grounds a fresh MLN matcher (cold verdict memo) over the staged
// candidates.
func (st *staged) newMLN() (*mln.Matcher, error) {
	mc := make([]mln.Candidate, len(st.sp))
	for i, c := range st.sp {
		mc[i] = mln.Candidate{Pair: c.Pair, Level: c.Level}
	}
	return mln.New(st.d, mc, mln.PaperWeights())
}

// rounds runs one scheme over the staged cover.
func (st *staged) rounds(scheme cem.Scheme, m core.Matcher, parallelism int) (*core.Result, error) {
	cfg := core.Config{Cover: st.cover, Matcher: m, Relation: st.d.Coauthor(), Parallelism: parallelism}
	switch scheme {
	case cem.SchemeSMP:
		return core.SMP(context.Background(), cfg)
	case cem.SchemeMMP:
		return core.MMP(context.Background(), cfg)
	}
	return nil, fmt.Errorf("staged rounds: scheme %q", scheme)
}

// evaluate scores the staged result the way Pipeline.Run does.
func (st *staged) evaluate(e *env) {
	st.stage(e, "eval.Evaluate+BCubed", "eval.report_s", func() {
		eval.Evaluate(st.res, st.truth, nil)
		gold := make([]int32, st.d.NumRefs())
		for i := range st.d.Refs {
			gold[i] = st.d.Refs[i].True
		}
		eval.BCubedFromMatches(st.res.Matches, gold)
	})
}

// coreCounters records the round engine's counters for one run.
func coreCounters(e *env, s core.RunStats) {
	e.add("core.evaluations", float64(s.Evaluations))
	e.add("core.messages_sent", float64(s.MessagesSent))
	e.add("core.skips", float64(s.Skips))
	e.add("core.skip_ratio", ratio(float64(s.Skips), float64(s.Skips+s.Evaluations)))
	e.add("core.max_revisits", float64(s.MaxRevisits))
}

// kernelSink keeps the kernels' results alive so the calls are not removed.
var kernelSink float64

// kernels times the similarity kernels, ns per call, over a seeded sample of
// in-neighborhood pairs drawn from the workload's own cover: the pairs the
// blocker and the matchers actually score.
func kernels(e *env, d *bib.Dataset, cover *core.Cover, q int) {
	n := 200_000
	if e.smoke {
		n = 2_000
	}
	var sets [][]core.EntityID
	for _, s := range cover.Sets {
		if len(s) >= 2 {
			sets = append(sets, s)
		}
	}
	if len(sets) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(e.corpusSeed(0)))
	pairs := make([][2]core.EntityID, n)
	for i := range pairs {
		s := sets[rng.Intn(len(sets))]
		a := rng.Intn(len(s))
		b := rng.Intn(len(s) - 1)
		if b >= a {
			b++
		}
		pairs[i] = [2]core.EntityID{s[a], s[b]}
	}
	parsed := make([]similarity.Name, d.NumRefs())
	fields := make([][]string, d.NumRefs())
	for i := range d.Refs {
		parsed[i] = similarity.ParseName(d.Refs[i].Name)
		fields[i] = similarity.SplitFields(d.Refs[i].Name)
	}
	perCall := func(metricName string, f func(a, b core.EntityID) float64) {
		w := e.tr.do("aux."+metricName, func() {
			for _, p := range pairs {
				kernelSink += f(p[0], p[1])
			}
		})
		e.add(metricName, w*1e9/float64(n))
	}
	perCall("similarity.name_level_ns", func(a, b core.EntityID) float64 {
		return float64(similarity.NameLevel(parsed[a], parsed[b]))
	})
	perCall("similarity.qgram_jaccard_ns", func(a, b core.EntityID) float64 {
		return similarity.QGramJaccard(d.Refs[a].Name, d.Refs[b].Name, q)
	})
	perCall("similarity.jaro_winkler_ns", func(a, b core.EntityID) float64 {
		return similarity.JaroWinkler(d.Refs[a].Name, d.Refs[b].Name)
	})
	// The typed-field kernels a rules program calls, over every field the
	// two keys share (bibliographic keys have one field, people keys four).
	perCall("similarity.field_kernels_ns", func(a, b core.EntityID) float64 {
		t := 0.0
		fa, fb := fields[a], fields[b]
		for i := 0; i < len(fa) && i < len(fb); i++ {
			if similarity.FieldEqual(fa[i], fb[i]) {
				t++
			}
			t += similarity.FieldJaro(fa[i], fb[i]) + similarity.FieldQGram(fa[i], fb[i]) + float64(similarity.FieldLev(fa[i], fb[i]))
			if diff, ok := similarity.AbsDiff(fa[i], fb[i]); ok {
				t += diff
			}
		}
		return t
	})
}
