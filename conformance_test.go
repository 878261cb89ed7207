package cem_test

// The conformance matrix: every way this repository can place a run's
// neighborhood evaluations × matcher × scheme, on the golden corpora,
// checked against the paper's three properties — consistency (Theorems 2
// and 4: the output is the pinned fixture no matter the placement or the
// evaluation order), soundness (SMP, MMP ⊆ FULL) and MMP ⊇ SMP ⊇ NO-MP.
// Two store rows save every round run's completed state through the
// "mem" and the "disk" store and read the snapshot back. Two option rows
// hold the logical knobs (transitive closure, negative evidence) to the same
// placement-independence, and a cover-refinement row holds the licence for
// the non-redundant cover: blocking's cover plus redundant neighborhoods —
// duplicates and subsets of its own — must give the fixtures exactly. Run
// under -race in CI, this is also the data-race gauntlet of the concurrent
// backends.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	cem "repro"
	"repro/internal/core"
	emnet "repro/internal/net"
	"repro/internal/wire"
	"repro/match"
)

// shuffledBackend is the matrix's adversarial schedule: every round it
// evaluates the active set one neighborhood at a time in a seeded random
// order, reducing each before the next.
type shuffledBackend struct{ rng *rand.Rand }

func (b shuffledBackend) RunRounds(_ context.Context, _ *match.RoundPlan, d *match.RoundDriver) error {
	for !d.Done() {
		ids := slices.Clone(d.Active())
		b.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids {
			d.Reduce(d.Evaluate(id))
		}
		if err := d.EndRound(); err != nil {
			return err
		}
	}
	return nil
}

// execution is one placement: a runner option.
type execution struct {
	name string
	opt  cem.RunnerOption
}

func executions(t *testing.T) []execution {
	ex := []execution{
		{"pool-1", cem.WithParallelism(1)},
		{"pool-4", cem.WithParallelism(4)},
		{"shuffled", cem.WithBackend(shuffledBackend{rand.New(rand.NewSource(7))})},
		// Table 1's placement: the fewest pool workers that map every round
		// against its round-start evidence, the run its grid clock replays.
		{"grid", cem.WithParallelism(2)},
	}
	for _, k := range []int{1, 2, 4} {
		ex = append(ex, execution{fmt.Sprintf("sharded-%d", k), cem.WithShardCount(k)})
	}
	// The same backend again, its worker streams crossing loopback TCP.
	for _, k := range []int{1, 2} {
		b := &emnet.Backend{Workers: k, Opts: emnet.Options{Wrap: overLoopback(t)}}
		ex = append(ex, execution{fmt.Sprintf("sharded-net-%d", k), cem.WithBackend(b)})
	}
	return ex
}

// overLoopback returns an Options.Wrap that carries a worker stream
// over a loopback TCP connection: the coordinator reads and writes one
// end of the socket, and a relay copies between the other end and the
// in-process worker's pipe. Frames then reach both sides as the kernel
// segments them, the way an attached emworker's do, instead of whole
// through a synchronous pipe.
func overLoopback(t *testing.T) func(int, io.ReadWriteCloser) io.ReadWriteCloser {
	return func(_ int, pipe io.ReadWriteCloser) io.ReadWriteCloser {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Errorf("loopback listen: %v", err)
			return pipe
		}
		defer l.Close()
		coord, err := net.Dial("tcp", l.Addr().String()) // the listen backlog completes the handshake
		if err != nil {
			t.Errorf("loopback dial: %v", err)
			return pipe
		}
		relay, err := l.Accept()
		if err != nil {
			coord.Close()
			t.Errorf("loopback accept: %v", err)
			return pipe
		}
		// Each copy ends when its source closes or fails, and closes its
		// destination, so a close on either side reaches the other.
		go func() { _, _ = io.Copy(relay, pipe); relay.Close() }()
		go func() { _, _ = io.Copy(pipe, relay); pipe.Close() }()
		return coord
	}
}

// run executes one scheme under the execution on a fresh runner carrying
// the row's option (nil for none).
func (ex execution) run(t *testing.T, exp *cem.Experiment, matcher string, scheme cem.Scheme, rowOpt cem.RunnerOption) *cem.Result {
	t.Helper()
	var opts []cem.RunnerOption
	for _, o := range []cem.RunnerOption{rowOpt, ex.opt} {
		if o != nil {
			opts = append(opts, o)
		}
	}
	runner, err := exp.Runner(matcher, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), scheme)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkSaved saves a completed round run through st, as a service commit
// does, and requires the snapshot blob to carry exactly the run's M+ and
// its outstanding maximal messages.
func checkSaved(t *testing.T, st match.Store, exp *cem.Experiment, res *cem.Result) {
	t.Helper()
	if err := cem.SaveState(st, &cem.PipelineResult{Result: res, Experiment: exp}, 1); err != nil {
		t.Fatal(err)
	}
	blob, err := st.OpenBlob(match.KindSnapshot, "latest")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := wire.UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	sameKey := func(k uint64, p match.PairKey) bool { return k == uint64(p) }
	if !slices.EqualFunc(ck.Delta, res.Matches.SortedKeys(), sameKey) {
		t.Errorf("%s: the saved snapshot holds %d pairs, the run matched %d", res.Scheme, len(ck.Delta), res.Matches.Len())
	}
	if !slices.EqualFunc(ck.Messages, res.Messages, func(keys []uint64, msg []match.Pair) bool {
		return slices.EqualFunc(keys, msg, func(k uint64, p match.Pair) bool { return sameKey(k, p.Key()) })
	}) {
		t.Errorf("%s: the saved snapshot holds %d messages, the run left %d", res.Scheme, len(ck.Messages), len(res.Messages))
	}
}

func wholeSet(s cem.Scheme) bool { return s == cem.SchemeFull || s == cem.SchemeUB }

// refined is exp over its cover plus redundant neighborhoods: for every
// fourth set, on average, a duplicate of a random set or a random non-empty
// subset of one, each inserted at a random position, so the original sets'
// ids move too.
func refined(t *testing.T, exp *cem.Experiment, seed int64) *cem.Experiment {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sets := slices.Clone(exp.Cover.Sets)
	for range len(sets) / 4 {
		extra := slices.Clone(sets[rng.Intn(len(sets))])
		if rng.Intn(2) == 0 {
			extra = slices.DeleteFunc(extra, func(core.EntityID) bool { return rng.Intn(3) == 0 })
			if len(extra) == 0 {
				continue
			}
		}
		sets = slices.Insert(sets, rng.Intn(len(sets)+1), extra)
	}
	out, err := cem.NewWithCover(exp.Dataset, core.NewCover(exp.Cover.NumEntities, sets))
	if err != nil {
		t.Fatal(err)
	}
	if out.Cover.Len() <= exp.Cover.Len() || out.Table.Len() != exp.Table.Len() {
		t.Fatalf("refined cover: %d sets and %d candidates, from %d and %d", out.Cover.Len(), out.Table.Len(), exp.Cover.Len(), exp.Table.Len())
	}
	return out
}

// TestConcurrentCovers runs SMP over the experiment's cover and over a
// refinement of it at the same time, on one built-in matcher. Each run's
// PrepareCover replaces the other's, so a run can name a neighborhood of a
// cover the matcher no longer holds prepared, which it must then scope
// afresh. Every result must equal the run over its cover alone.
func TestConcurrentCovers(t *testing.T) {
	exp, err := cem.New(cem.NewDataset(cem.HEPTH, 0.25, 42))
	if err != nil {
		t.Fatal(err)
	}
	covers := []*core.Cover{exp.Cover, refined(t, exp, 42).Cover}
	mlnM, rulesM := builtins(t, exp)
	for _, m := range []match.Matcher{mlnM, rulesM} {
		run := func(c *core.Cover) match.PairSet {
			res, err := core.SMP(context.Background(), core.Config{Cover: c, Matcher: m, Relation: exp.Dataset.Coauthor()})
			if err != nil {
				t.Error(err)
				return nil
			}
			return res.Matches
		}
		alone := make([]match.PairSet, len(covers))
		for i, c := range covers {
			alone[i] = run(c)
		}
		var wg sync.WaitGroup
		for i, c := range covers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 3 {
					if got := run(c); !got.Equal(alone[i]) {
						t.Errorf("%T, cover %d: a concurrent run matched %d pairs, alone %d", m, i, got.Len(), alone[i].Len())
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestConformance(t *testing.T) {
	placements := executions(t)
	for _, ds := range goldenSeeds {
		exp, err := cem.New(cem.NewDataset(ds.kind, ds.scale, ds.seed))
		if err != nil {
			t.Fatal(err)
		}
		redundant := refined(t, exp, ds.seed)
		for _, matcher := range []string{cem.MatcherMLN, cem.MatcherRules} {
			// The reference: the default placement, held to the fixtures.
			ref := map[cem.Scheme]match.PairSet{}
			for _, scheme := range goldenMatrix[matcher] {
				path := filepath.Join("testdata", "golden", fmt.Sprintf("%s-%s-%s.golden", ds.kind, matcher, scheme))
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing fixture (run `go test -run TestGoldenMatchSets -update`): %v", err)
				}
				ref[scheme] = placements[0].run(t, exp, matcher, scheme, nil).Matches
				if got := renderPairs(ref[scheme]); got != string(want) {
					t.Fatalf("%s: reference run diverges from its fixture: %s", path, firstDiff(got, string(want)))
				}
			}
			victim := ref[cem.SchemeSMP].Sorted()[0] // a pair SMP matches: the negative row's V−

			// A row fixes the logical configuration; every placement must
			// land on the row's one expected output per scheme.
			type row struct {
				name    string
				exp     *cem.Experiment // nil: the fixture's experiment
				opt     cem.RunnerOption
				store   *storeVariant // the completed runs are saved through it
				schemes []cem.Scheme
				want    func(cem.Scheme) match.PairSet
			}
			fixtures := func(s cem.Scheme) match.PairSet { return ref[s] }
			// The option rows run the schemes both matchers share. V− binds
			// matcher calls, not MMP's message promotion, so "the victim
			// stays unmatched" is a claim about NO-MP and SMP only.
			shared := []cem.Scheme{cem.SchemeNoMP, cem.SchemeSMP}
			negOpt, negative := cem.WithNegativeEvidence(match.NewPairSet(victim)), map[cem.Scheme]match.PairSet{}
			for _, s := range shared {
				negative[s] = placements[0].run(t, exp, matcher, s, negOpt).Matches
				if negative[s].Has(victim) {
					t.Errorf("%s/%s: negative evidence ignored: victim pair matched", matcher, s)
				}
			}
			rows := []row{{name: "nostore", schemes: goldenMatrix[matcher], want: fixtures}}
			for _, sv := range storeVariants(t) {
				rows = append(rows, row{name: sv.name, store: &sv, schemes: goldenMatrix[matcher], want: fixtures})
			}
			rows = append(rows,
				row{name: "refined", exp: redundant, schemes: goldenMatrix[matcher], want: fixtures},
				row{name: "closure", opt: cem.WithTransitiveClosure(), schemes: shared,
					want: func(s cem.Scheme) match.PairSet { return exp.TransitiveClosure(ref[s]) }},
				row{name: "negative", opt: negOpt, schemes: shared,
					want: func(s cem.Scheme) match.PairSet { return negative[s] }})

			for _, r := range rows {
				for i, ex := range placements {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", ds.kind, matcher, r.name, ex.name), func(t *testing.T) {
						rexp := exp
						if r.exp != nil {
							rexp = r.exp
						}
						var st match.Store
						if r.store != nil {
							st = r.store.open(t)
						}
						got := map[cem.Scheme]match.PairSet{}
						for _, scheme := range r.schemes {
							if wholeSet(scheme) && i > 0 {
								continue // no placement to vary: once per row, nothing saved
							}
							res := ex.run(t, rexp, matcher, scheme, r.opt)
							got[scheme] = res.Matches
							if want := r.want(scheme); !res.Matches.Equal(want) {
								t.Errorf("%s: match set diverges: %s", scheme, firstDiff(renderPairs(res.Matches), renderPairs(want)))
							}
							if st != nil && !wholeSet(scheme) {
								checkSaved(t, st, rexp, res)
							}
						}
						smp := got[cem.SchemeSMP]
						if !got[cem.SchemeNoMP].Subset(smp) {
							t.Error("SMP lost NO-MP matches")
						}
						if mmp, ok := got[cem.SchemeMMP]; ok && !smp.Subset(mmp) {
							t.Error("MMP lost SMP matches")
						}
						if r.opt == nil {
							for _, s := range []cem.Scheme{cem.SchemeSMP, cem.SchemeMMP} {
								if !got[s].Subset(ref[cem.SchemeFull]) {
									t.Errorf("%s is unsound: not contained in FULL", s)
								}
							}
						}
					})
				}
			}
		}
	}
}
