package cem_test

// The paper's guarantees as one checker. A scenario fixes one value per
// run axis — corpus, matcher, scheme, placement, cover perturbation,
// arrival split, evidence form, resume point, store, fault schedule and
// seeded evidence — and theorems runs it and holds it to:
//
//   - consistency (Theorems 2 and 4): the match set is the same scheme's
//     cold in-order pool run on the same corpus and cover, whatever the
//     placement, order, split, resume point, store, form or fault; a twin
//     matcher (the pair form of a dense matcher, an equivalent rules
//     program) gives the same messages and counters as well;
//   - soundness: NO-MP ⊆ SMP ⊆ MMP ⊆ FULL on every reference;
//   - redundant sets give the unperturbed output exactly, and merged sets
//     are a cover like any other, so their runs stay ⊆ FULL;
//   - streaming equals cold: after the last Update the output is a cold
//     Run over the union, and a store holding every batch reopens to it;
//   - foreign pairs change nothing: a warm seed carrying pairs no matcher
//     grounds keeps them and derives exactly the cold fixpoint.
//
// References are computed once per corpus, cover, matcher, scheme and
// option, and shared by every scenario that needs them. FuzzTheorems
// draws scenarios from bytes on tiny corpora; the differential tests are
// runners over the same checker with their axes fixed on the golden
// corpora. Run under -race in CI, it is also the data-race gauntlet of
// the concurrent backends.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	cem "repro"
	"repro/internal/core"
	emnet "repro/internal/net"
	"repro/internal/net/faultnet"
	"repro/internal/wire"
	"repro/match"
)

type corpus struct {
	kind  cem.DatasetKind
	scale float64
	seed  int64
}

// split is how records arrive: n == 0 is one cold Run over the corpus,
// n < 0 is arrival(seed), n > 0 the records shuffled by seed and cut into
// n Update batches; upto > 0 keeps the first upto batches only.
type split struct {
	n    int
	seed int64
	upto int
}

type scenario struct {
	corpus
	matcher  string // a registered matcher: mln, rules or a rules program
	twin     string // a matcher whose run must equal matcher's, counters included
	scheme   cem.Scheme
	place    string // pool-N, grid, shuffled[-seed], sharded-N or sharded-net-N; "" is pool-1
	cover    string // "", "redundant" or "merged"
	split    split
	kill     int    // > 0: the run is killed once round kill-1 is checkpointed, then resumed
	store    string // "", "mem" or "disk": the completed state is saved and read back
	fault    *faultnet.Plan
	evidence string // "", "negative" (V−) or "foreign" (a warm seed with non-candidate pairs)
	closure  bool
	warm     string // the cold run's placement; set, every trailing batch warm-starts with fewer matcher calls
}

func (sc scenario) String() string {
	return fmt.Sprintf("%s %g/%d %s %s %s cover=%q split=%v kill=%d store=%q fault=%v evidence=%q closure=%v twin=%q",
		sc.kind, sc.scale, sc.seed, sc.matcher, sc.scheme, sc.place, sc.cover, sc.split, sc.kill, sc.store, sc.fault != nil, sc.evidence, sc.closure, sc.twin)
}

// outcome is what a scenario ran, for the assertions a runner adds.
type outcome struct {
	res, ref *cem.Result
	world    *world
	killed   bool // the kill interrupted the run before it finished
	inj      *faultnet.Injector
}

// world is one corpus over one cover, its foreign pairs and its largest
// neighborhood.
type world struct {
	exp     *cem.Experiment
	foreign match.PairSet
	big     []match.EntityID
}

var memo sync.Map

// cached returns the value stored under key, building it on first use.
func cached[T any](key string, build func() T) T {
	if v, ok := memo.Load(key); ok {
		return v.(T)
	}
	v, _ := memo.LoadOrStore(key, build())
	return v.(T)
}

func (sc scenario) world(t *testing.T) *world {
	return cached(fmt.Sprint("world", sc.corpus, sc.cover), func() *world {
		w := &world{}
		if sc.cover == "" {
			var err error
			if w.exp, err = cem.New(cem.NewDataset(sc.kind, sc.scale, sc.seed)); err != nil {
				t.Fatal(err)
			}
		} else {
			base := sc
			base.cover = ""
			w.exp = perturb(t, base.world(t).exp, sc.cover, sc.seed)
		}
		for _, set := range w.exp.Cover.Sets {
			if len(set) > len(w.big) {
				w.big = set
			}
		}
		w.foreign = foreignPairs(w.exp, w.big)
		return w
	})
}

// foreignPairs are non-candidate pairs where they would matter most: for
// every candidate (a, b), the pairs {c1, c2} of a coauthor of a and a
// coauthor of b — exactly the pairs both coauthor rules consult — plus the
// in-scope pairs of the largest neighborhood.
func foreignPairs(exp *cem.Experiment, big []match.EntityID) match.PairSet {
	candidate := match.NewPairSet()
	for _, c := range exp.Candidates {
		candidate.Add(c.Pair)
	}
	co := exp.Dataset.Coauthor()
	foreign := match.NewPairSet()
	add := func(a, b match.EntityID) {
		if p := match.MakePair(a, b); a != b && !candidate.Has(p) {
			foreign.Add(p)
		}
	}
	for _, c := range exp.Candidates {
		for _, c1 := range co.Neighbors(c.Pair.A) {
			for _, c2 := range co.Neighbors(c.Pair.B) {
				add(c1, c2)
			}
		}
	}
	for i, a := range big {
		for _, b := range big[i+1:] {
			add(a, b)
		}
	}
	return foreign
}

// options are the runner options every run of sc carries.
func (sc scenario) options(t *testing.T) []cem.RunnerOption {
	var opts []cem.RunnerOption
	if sc.closure {
		opts = append(opts, cem.WithTransitiveClosure())
	}
	if sc.evidence == "negative" {
		opts = append(opts, cem.WithNegativeEvidence(sc.negative(t)))
	}
	return opts
}

// negative is V−: the first pair the plain SMP reference matches, and a
// foreign pair.
func (sc scenario) negative(t *testing.T) match.PairSet {
	plain := sc
	plain.closure, plain.evidence = false, ""
	neg := match.NewPairSet()
	for _, ps := range []match.PairSet{plain.ref(t, cem.SchemeSMP).Matches, sc.world(t).foreign} {
		if s := ps.Sorted(); len(s) > 0 {
			neg.Add(s[0])
		}
	}
	return neg
}

func roundScheme(s cem.Scheme) bool { return s != cem.SchemeFull && s != cem.SchemeUB }

// ref is the reference a variant of sc running scheme s is held to: s run
// cold on the in-order pool over sc's corpus and cover with sc's matcher
// and options. It is computed once, and computing it checks what it
// promises: soundness, the pinned fixture, and that redundant sets, the
// closure and V− do what they say.
func (sc scenario) ref(t *testing.T, s cem.Scheme) *cem.Result {
	neg := sc.evidence == "negative"
	return cached(fmt.Sprint("ref", sc.corpus, sc.cover, sc.matcher, s, sc.closure, neg), func() *cem.Result {
		exp := sc.world(t).exp
		res := run(t, runner(t, exp, sc.matcher, sc.options(t)...), s)
		got := res.Matches
		if lower, ok := map[cem.Scheme]cem.Scheme{cem.SchemeSMP: cem.SchemeNoMP, cem.SchemeMMP: cem.SchemeSMP}[s]; ok && !sc.ref(t, lower).Matches.Subset(got) {
			t.Errorf("%v: %s lost %s matches", sc, s, lower)
		}
		plain := !sc.closure && !neg
		if plain && roundScheme(s) && !got.Subset(sc.ref(t, cem.SchemeFull).Matches) {
			t.Errorf("%v: %s is unsound: not contained in FULL", sc, s)
		}
		path := filepath.Join("testdata", "golden", fmt.Sprintf("%s-%s-%s.golden", sc.kind, sc.matcher, s))
		if want, err := os.ReadFile(path); err == nil && plain && sc.cover == "" && slices.Contains(goldenSeeds, sc.corpus) {
			if got := renderPairs(got); got != string(want) {
				t.Errorf("%s: reference run diverges from its fixture: %s", path, firstDiff(got, string(want)))
			}
		}
		if sc.cover == "redundant" {
			whole := sc
			whole.cover = ""
			if want := whole.ref(t, s).Matches; !got.Equal(want) {
				t.Errorf("%v: %s over redundant sets diverges: %s", sc, s, firstDiff(renderPairs(got), renderPairs(want)))
			}
		}
		if sc.closure {
			open := sc
			open.closure = false
			if want := exp.TransitiveClosure(open.ref(t, s).Matches); !got.Equal(want) {
				t.Errorf("%v: %s is not the closure of the open run", sc, s)
			}
		}
		// V− binds matcher calls; MMP's promotion and the closure may imply a V− pair.
		if neg && !sc.closure && (s == cem.SchemeNoMP || s == cem.SchemeSMP) && got.Intersect(sc.negative(t)).Len() > 0 {
			t.Errorf("%v: %s: negative evidence ignored: a V− pair matched", sc, s)
		}
		return res
	})
}

func runner(t *testing.T, exp *cem.Experiment, matcher string, opts ...cem.RunnerOption) *cem.Runner {
	r, err := exp.Runner(matcher, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func run(t *testing.T, r *cem.Runner, s cem.Scheme) *cem.Result {
	res, err := r.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// placement is the runner option that places a run.
func placement(t *testing.T, name string) cem.RunnerOption {
	var k int
	switch {
	case name == "":
		return cem.WithParallelism(1)
	case name == "grid": // Table 1's: the fewest pool workers that map every round against its round-start evidence
		return cem.WithParallelism(2)
	case strings.HasPrefix(name, "shuffled"):
		seed := int64(7)
		fmt.Sscanf(name, "shuffled-%d", &seed)
		return cem.WithBackend(shuffledBackend{rand.New(rand.NewSource(seed))})
	case sscan(name, "pool-%d", &k):
		return cem.WithParallelism(k)
	case sscan(name, "sharded-net-%d", &k): // the sharded backend, its worker streams crossing loopback TCP
		return cem.WithBackend(&emnet.Backend{Workers: k, Opts: emnet.Options{Wrap: overLoopback(t)}})
	case sscan(name, "sharded-%d", &k):
		return cem.WithShardCount(k)
	}
	t.Fatalf("unknown placement %q", name)
	return nil
}

func sscan(s, format string, k *int) bool {
	_, err := fmt.Sscanf(s, format, k)
	return err == nil
}

// theorems runs sc and holds it to the paper's guarantees.
func theorems(t *testing.T, sc scenario) outcome {
	t.Helper()
	if sc.split.n != 0 {
		return sc.stream(t)
	}
	w := sc.world(t)
	o := outcome{world: w, ref: sc.ref(t, sc.scheme)}
	o.res = sc.variant(t, w, sc.matcher, &o)
	got := o.res.Matches
	if sc.evidence == "foreign" {
		got = got.Minus(w.foreign)
	}
	if !got.Equal(o.ref.Matches) {
		t.Errorf("%v: match set diverges from the reference: %s", sc, firstDiff(renderPairs(got), renderMatches(o.ref)))
	}
	if sc.twin != "" {
		if a, b := pin(o.res.Result), pin(sc.variant(t, w, sc.twin, &outcome{}).Result); !reflect.DeepEqual(a, b) {
			t.Errorf("%v: %s and %s runs differ:\n%d matches, %d messages, %v\n%d matches, %d messages, %v", sc, sc.matcher, sc.twin,
				len(a.Matches), len(a.Messages), a.Stats, len(b.Matches), len(b.Messages), b.Stats)
		}
	}
	if sc.fault != nil {
		for victim := range sc.fault.KillAtRound {
			if o.inj.Killed(victim) && o.res.Stats.Reassignments < 1 {
				t.Errorf("%v: worker %d died but Reassignments = %d", sc, victim, o.res.Stats.Reassignments)
			}
		}
	}
	return o
}

// variant runs sc's scheme with the named matcher as sc places, kills,
// seeds and stores it.
func (sc scenario) variant(t *testing.T, w *world, matcher string, o *outcome) *cem.Result {
	opts := append(sc.options(t), placement(t, sc.place))
	if sc.fault != nil {
		o.inj = faultnet.New(*sc.fault)
		// The worker config has no V−, as an emworker's: the Hello carries it.
		cfg := workerConfig(w.exp, runner(t, w.exp, matcher))
		opts = append(opts, cem.WithBackend(faultyNetBackend(cfg, cem.CoreScheme(sc.scheme), 3, o.inj)))
	}
	var res *cem.Result
	switch {
	case sc.evidence == "foreign":
		res = sc.seeded(t, w, matcher, opts)
	case sc.kill > 0:
		res = sc.resumed(t, w, matcher, opts, o)
	default:
		res = run(t, runner(t, w.exp, matcher, opts...), sc.scheme)
	}
	if sc.store != "" && roundScheme(sc.scheme) {
		checkSaved(t, openStore(t, sc.store, t.TempDir()), w.exp, res)
	}
	return res
}

// seeded warm-starts the run from half the reference's matches plus every
// foreign pair, every neighborhood active: the run must carry the pairs it
// was seeded with, its trail must open with the seed, and replaying the
// trail must rebuild the result.
func (sc scenario) seeded(t *testing.T, w *world, matcher string, opts []cem.RunnerOption) *cem.Result {
	ref := sc.ref(t, sc.scheme)
	foreign := w.foreign
	if sc.twin != "" { // the pair form reads evidence in time linear in its size: every 64th pair
		foreign = match.NewPairSet()
		for i, p := range w.foreign.Sorted() {
			if i%64 == 0 {
				foreign.Add(p)
			}
		}
	}
	seed := foreign.Clone()
	for i, p := range ref.Matches.Sorted() {
		if i%2 == 0 {
			seed.Add(p)
		}
	}
	warm := &core.WarmStart{Evidence: seed.SortedKeys()}
	for id := range w.exp.Cover.Sets {
		warm.Active = append(warm.Active, int32(id))
	}
	if sc.scheme == cem.SchemeMMP {
		warm.Messages = ref.Messages
	}
	dir := t.TempDir()
	opts = append(opts, cem.WithCheckpointDir(dir))
	res, err := cem.RunWarm(context.Background(), runner(t, w.exp, matcher, opts...), sc.scheme, warm)
	if err != nil {
		t.Fatal(err)
	}
	if lost := foreign.Minus(res.Matches); lost.Len() > 0 {
		t.Errorf("%v: the run dropped %d of the pairs it was seeded with", sc, lost.Len())
	}
	if first := readCheckpoint(t, filepath.Join(dir, "round-000001.ckpt")); !slices.EqualFunc(first.Delta, warm.Evidence, func(a uint64, b match.PairKey) bool { return a == uint64(b) }) {
		t.Errorf("%v: the trail's seed record holds %d keys, the seed %d", sc, len(first.Delta), len(warm.Evidence))
	}
	if resumed := resume(t, runner(t, w.exp, matcher, opts...), sc.scheme); !resumed.Matches.Equal(res.Matches) {
		t.Errorf("%v: replaying the seeded trail: extra %v, missing %v", sc, resumed.Matches.Minus(res.Matches).Sorted(), res.Matches.Minus(resumed.Matches).Sorted())
	}
	return res
}

// resumed kills a checkpointed run on the two-worker pool after round
// kill-1 (kill 1: before any round completes; kill r+1: at the first
// progress event of round r, which lets round r checkpoint and aborts
// round r+1), then resumes the trail as sc places it. The resumed counters
// never fall below the checkpointed ones, and the trail ends Done.
func (sc scenario) resumed(t *testing.T, w *world, matcher string, opts []cem.RunnerOption, o *outcome) *cem.Result {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	kopts := append(sc.options(t), cem.WithCheckpointDir(dir), cem.WithParallelism(2))
	if r := sc.kill - 1; r > 0 {
		kopts = append(kopts, cem.WithProgress(func(e match.ProgressEvent) {
			if e.Round == r {
				cancel()
			}
		}))
	} else {
		cancel()
	}
	_, err := runner(t, w.exp, matcher, kopts...).Run(ctx, sc.scheme)
	cancel()
	if o.killed = err != nil; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("%v: kill: unexpected error %v", sc, err)
	}
	ck := lastCheckpoint(t, dir)
	res := resume(t, runner(t, w.exp, matcher, append(opts, cem.WithCheckpointDir(dir))...), sc.scheme)
	assertMonotone(t, ck, res.Stats)
	if last := lastCheckpoint(t, dir); last == nil || !last.Done {
		t.Errorf("%v: the resumed run left no Done checkpoint", sc)
	}
	return res
}

func resume(t *testing.T, r *cem.Runner, s cem.Scheme) *cem.Result {
	res, err := r.Resume(context.Background(), s)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return res
}

// pipeline is the Pipeline sc streams through, with opts and sc's closure.
func (sc scenario) pipeline(t *testing.T, opts ...cem.RunnerOption) *cem.Pipeline {
	if sc.closure {
		opts = append(opts, cem.WithTransitiveClosure())
	}
	p, err := cem.NewPipeline(cem.WithMatcher(sc.matcher), cem.WithScheme(sc.scheme), cem.WithRunnerOptions(opts...))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// batches is sc's corpus as records, cut as sc's split says.
func (sc scenario) batches(t *testing.T) [][]cem.Record {
	return sc.split.cut(cached(fmt.Sprint("records", sc.corpus), func() []cem.Record {
		records, err := cem.GenerateRecords(sc.kind, sc.scale, sc.seed)
		if err != nil {
			t.Fatal(err)
		}
		return records
	}))
}

// cold is the reference of a streamed scenario: one Run over the union of
// its batches, on the placement sc.warm names, computed once.
func (sc scenario) cold(t *testing.T) *cem.PipelineResult {
	return cached(fmt.Sprint("cold", sc.corpus, sc.split, sc.matcher, sc.scheme, sc.closure, sc.warm), func() *cem.PipelineResult {
		res, err := sc.pipeline(t, placement(t, sc.warm)).Run(context.Background(), slices.Concat(sc.batches(t)...))
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
}

// stream ingests sc's split with Pipeline.Update and holds the last result
// to the cold run over the union; with a store, every batch is saved as
// the service's committer does, and the last save reopens — with zero
// matcher calls — to the same result.
func (sc scenario) stream(t *testing.T) outcome {
	ctx := context.Background()
	batches, cold := sc.batches(t), sc.cold(t)
	union := slices.Concat(batches...)
	pipe := sc.pipeline(t, placement(t, sc.place))
	dir := t.TempDir()
	var st match.Store
	if sc.store != "" {
		st = openStore(t, sc.store, dir)
	}
	var res *cem.PipelineResult
	var err error
	var oracle affectedOracle
	for bi, batch := range batches {
		if res, err = pipe.Update(ctx, res, batch); err != nil {
			t.Fatalf("%v: update %d: %v", sc, bi, err)
		}
		oracle.check(t, res)
		if sc.warm != "" && bi > 0 && (!res.WarmStarted || res.Stats.MatcherCalls >= cold.Stats.MatcherCalls) {
			t.Errorf("%v: update %d (%d records): warm-started %v (forced rerun: %v) with %d matcher calls, the cold run needs %d",
				sc, bi, len(batch), res.WarmStarted, res.ForcedRerun, res.Stats.MatcherCalls, cold.Stats.MatcherCalls)
		}
		if st != nil {
			if err := cem.SaveState(st, res, bi+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := renderMatches(res.Result), renderMatches(cold.Result); got != want {
		t.Errorf("%v: %d records in %d batches diverge from the cold run: %s", sc, len(union), len(batches), firstDiff(got, want))
	}
	if st != nil {
		if sc.store == "disk" {
			st.Close()
			st = openStore(t, sc.store, dir)
		}
		reopened, seq, err := sc.pipeline(t).Reopen(ctx, union, st)
		if err != nil {
			t.Fatal(err)
		}
		if seq != len(batches) || reopened.Stats.MatcherCalls != 0 || !reopened.Matches.Equal(cold.Matches) {
			t.Errorf("%v: the %s store reopens at sequence %d of %d with %d matcher calls: %s", sc, sc.store, seq, len(batches),
				reopened.Stats.MatcherCalls, firstDiff(renderMatches(reopened.Result), renderMatches(cold.Result)))
		}
	}
	return outcome{res: res.Result, ref: cold.Result}
}

// cut splits records as s says.
func (s split) cut(records []cem.Record) [][]cem.Record {
	rng := rand.New(rand.NewSource(s.seed))
	var batches [][]cem.Record
	if s.n < 0 {
		batches = arrival(rng, records)
	} else {
		recs := slices.Clone(records)
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		for i := range s.n {
			batches = append(batches, recs[i*len(recs)/s.n:(i+1)*len(recs)/s.n])
		}
	}
	if s.upto > 0 {
		batches = batches[:s.upto]
	}
	return batches
}

// arrival is one randomized ingestion sequence: a shuffled record order
// cut into a base batch (55–75% of the corpus) followed by small
// trailing batches (1–8% each) — the steady-state streaming regime.
func arrival(rng *rand.Rand, records []cem.Record) [][]cem.Record {
	recs := append([]cem.Record(nil), records...)
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	n := len(recs)
	batches := [][]cem.Record{}
	lo := 0
	for lo < n {
		var hi int
		if lo == 0 {
			hi = n*11/20 + rng.Intn(n/5+1) // 55–75%
		} else {
			hi = lo + 1 + rng.Intn(n*8/100+1) // 1–8%
		}
		if hi > n {
			hi = n
		}
		batches = append(batches, recs[lo:hi])
		lo = hi
	}
	return batches
}

// openStore opens the named store, a disk store in dir, closed when the
// test ends.
func openStore(t *testing.T, name, dir string) match.Store {
	s, err := cem.OpenStore(name, cem.WithStoreDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
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

// lastCheckpoint decodes the highest-round checkpoint in dir; nil when
// the trail is empty.
func lastCheckpoint(t *testing.T, dir string) *wire.Checkpoint {
	files, _ := filepath.Glob(filepath.Join(dir, "round-*.ckpt"))
	if len(files) == 0 {
		return nil
	}
	return readCheckpoint(t, slices.Max(files))
}

func readCheckpoint(t *testing.T, file string) *wire.Checkpoint {
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := wire.UnmarshalCheckpoint(raw)
	if err != nil {
		t.Fatalf("decoding %s: %v", file, err)
	}
	return ck
}

// assertMonotone fails if a counter shrank from the checkpointed
// snapshot to the resumed run's final statistics: a resume may redo the
// interrupted round, never lose one.
func assertMonotone(t *testing.T, ck *wire.Checkpoint, got match.RunStats) {
	if ck == nil {
		return
	}
	was, now := reflect.ValueOf(ck.Stats), reflect.ValueOf(got)
	for i := range was.NumField() {
		if was.Field(i).Kind() == reflect.Int && now.Field(i).Int() < was.Field(i).Int() {
			t.Errorf("resumed %s = %d below checkpointed %d", was.Type().Field(i).Name, now.Field(i).Int(), was.Field(i).Int())
		}
	}
	if len(got.ActiveSizes) < len(ck.Stats.ActiveSizes) {
		t.Errorf("resumed run has %d active sizes, the checkpoint %d", len(got.ActiveSizes), len(ck.Stats.ActiveSizes))
	}
}

// pairForm hides a matcher's dense extension: it forwards every method
// that takes evidence as a PairSet, and has none that takes ids.
type pairForm struct{ m match.Matcher }

func (g pairForm) Match(es []match.EntityID, pos, neg match.PairSet) match.PairSet {
	return g.m.Match(es, pos, neg)
}
func (g pairForm) Candidates(es []match.EntityID) []match.Pair { return g.m.Candidates(es) }
func (g pairForm) PrepareCover(c *match.Cover)                 { g.m.(match.ScopePreparer).PrepareCover(c) }

// pairFormProb is pairForm for a Type-II matcher, with the PairSet forms
// of the MMP extensions.
type pairFormProb struct{ pairForm }

func (g pairFormProb) LogScore(s match.PairSet) float64 {
	return g.m.(match.Probabilistic).LogScore(s)
}
func (g pairFormProb) MaximalMessages(es []match.EntityID, mPlus, neg, base match.PairSet) ([][]match.Pair, int) {
	return g.m.(core.MaximalMessenger).MaximalMessages(es, mPlus, neg, base)
}
func (g pairFormProb) ScoreSetDelta(add []match.Pair, s match.PairSet) float64 {
	return g.m.(core.DeltaScorer).ScoreSetDelta(add, s)
}

// pairFormOf registers, once, the named matcher behind pairForm, and
// returns the name it is registered under.
func pairFormOf(name string) string {
	factory, _ := cem.LookupMatcher(name)
	return registerOnce(name+"~pairs", func(mc cem.MatcherContext) (match.Matcher, error) {
		m, err := factory(mc)
		if _, ok := m.(match.Probabilistic); ok {
			return pairFormProb{pairForm{m}}, err
		}
		return pairForm{m}, err
	})
}

// pinned is what a run and its twin must agree on: the outputs and every
// counter that does not measure time, the memo or the transport.
type pinned struct {
	Matches  []match.Pair
	Messages [][]match.Pair
	Stats    match.RunStats
}

func pin(res *core.Result) pinned {
	s := res.Stats
	s.Elapsed, s.MatcherTime, s.Cache = 0, 0, core.CacheReport{}
	s.Reassignments, s.RetriedSends, s.LateBatchesDropped = 0, 0, 0
	return pinned{res.Matches.Sorted(), res.Messages, s}
}

// axes are FuzzTheorems' run axes, one input byte each; a value's index
// is the byte modulo the axis length, and the first value is the default.
var axes = [][]string{
	{"hepth", "dblp", "people"},
	{"0.05", "0.03"},
	{"mln", "rules", "paper.rules", "strict.rules", "lenient.rules"},
	{"smp", "nomp", "mmp"},
	{"pool-1", "pool-3", "shuffled", "sharded-1", "sharded-2", "sharded-3", "sharded-net-2"},
	{"whole", "redundant", "merged"},
	{"cold", "arrival", "batches-1", "batches-2", "batches-3", "batches-4"},
	{"dense", "pairs"},
	{"uninterrupted", "kill-0", "kill-1", "kill-2", "kill-3"},
	{"nostore", "mem", "disk"},
	{"faultless", "killed", "lossy"},
	{"unseeded", "negative", "foreign"},
	{"open", "closure"},
}

// decode turns fuzz input into a scenario. Axis values that do not
// combine fall back to their defaults.
func decode(t testing.TB, b []byte, seed int64) scenario {
	v := make([]string, len(axes))
	for i, vals := range axes {
		v[i] = vals[0]
		if i < len(b) {
			v[i] = vals[int(b[i])%len(vals)]
		}
	}
	scale, _ := strconv.ParseFloat(v[1], 64)
	sc := scenario{
		corpus:   corpus{cem.DatasetKind(v[0]), scale, seed & 15},
		matcher:  v[2],
		scheme:   cem.Scheme(v[3]),
		place:    strings.Replace(v[4], "shuffled", fmt.Sprintf("shuffled-%d", seed), 1),
		cover:    strings.TrimPrefix(v[5], "whole"),
		evidence: strings.TrimPrefix(v[11], "unseeded"),
		closure:  v[12] == "closure",
		store:    strings.TrimPrefix(v[9], "nostore"),
	}
	switch {
	case sc.kind == cem.People:
		sc.matcher = loadProgram(t, filepath.Join("testdata", "rules", "people.rules"))
	case strings.HasSuffix(sc.matcher, ".rules"):
		sc.matcher = loadProgram(t, filepath.Join("testdata", "rules", sc.matcher))
	}
	if sc.scheme == cem.SchemeMMP && sc.matcher != cem.MatcherMLN {
		sc.scheme = cem.SchemeSMP
	}
	switch v[6] {
	case "arrival":
		sc.split = split{n: -1, seed: seed & 15}
	case "cold":
	default:
		sc.split = split{n: int(v[6][len(v[6])-1] - '0'), seed: seed & 15}
	}
	if v[7] == "pairs" {
		sc.twin = pairFormOf(sc.matcher)
	}
	if r, err := strconv.Atoi(strings.TrimPrefix(v[8], "kill-")); err == nil {
		sc.kill = r + 1
	}
	switch v[10] {
	case "killed":
		sc.fault = &faultnet.Plan{Seed: seed, KillAtRound: map[int]int{1: 1 + int(seed&1)}, Permadead: true}
	case "lossy":
		sc.fault = &faultnet.Plan{Seed: seed, DropRate: 0.1, DupRate: 0.15, DelayRate: 0.25, MaxDelay: 3 * time.Millisecond}
	}
	if sc.split.n != 0 {
		sc.cover, sc.twin, sc.kill, sc.fault, sc.evidence = "", "", 0, nil, ""
	}
	if sc.fault != nil {
		sc.twin, sc.kill = "", 0
	}
	if sc.kill > 0 {
		sc.twin = ""
	}
	if sc.evidence == "foreign" {
		sc.kill, sc.closure = 0, false
		if sc.scheme == cem.SchemeNoMP {
			sc.scheme = cem.SchemeSMP
		}
	}
	if sc.closure {
		sc.store = ""
	}
	return sc
}

// FuzzTheorems draws a scenario from its input and runs the checker on
// it. The seed rows name every value of every axis at least once. CI's
// store job runs rows 1–4 (seed#1–#4), its fault job rows 1–3 and 5–9,
// both under -race; the target fails when those rows stop reaching a
// store, or a sharded placement or fault.
func FuzzTheorems(f *testing.F) {
	named := map[string]bool{}
	for i, row := range []struct {
		values string
		seed   int64
	}{
		{"hepth mln mmp pool-3 pairs", 42},
		{"dblp rules nomp sharded-1 redundant mem", 42},
		{"hepth mln sharded-2 merged disk negative", 1},
		{"dblp paper.rules sharded-net-2 batches-2 disk", 5},
		{"people 0.03 shuffled arrival mem", 3},
		{"hepth strict.rules nomp sharded-3 batches-3 closure", 2},
		{"dblp mln mmp kill-1 sharded-2", 42},
		{"hepth mln mmp foreign pairs sharded-2", 42},
		{"hepth mln killed negative", 42},
		{"hepth rules sharded-1 lossy", -14}, // a late batch reaches a partition idle in its round
		{"dblp lenient.rules batches-1", 7},
		{"hepth mln mmp batches-4", 9},
		{"hepth rules kill-0 closure", 4},
		{"hepth mln kill-2 negative pairs", 6},
		{"dblp rules kill-3 redundant", 8},
		{"dblp rules foreign merged", 13},
	} {
		b := make([]byte, len(axes))
		for _, tok := range strings.Fields(row.values) {
			named[tok] = true
			for i, vals := range axes {
				if j := slices.Index(vals, tok); j >= 0 {
					b[i] = byte(j)
				}
			}
		}
		f.Add(b, row.seed)
		sc := decode(f, b, row.seed)
		if 1 <= i && i <= 4 && sc.store == "" {
			f.Fatalf("seed#%d (%s) reaches no store, and CI's store job runs it", i, row.values)
		}
		if 1 <= i && i <= 9 && i != 4 && !strings.HasPrefix(sc.place, "sharded") && sc.fault == nil {
			f.Fatalf("seed#%d (%s) is neither sharded nor faulted, and CI's fault job runs it", i, row.values)
		}
	}
	for _, vals := range axes {
		for _, v := range vals[1:] {
			if !named[v] {
				f.Fatalf("no seed row names the axis value %q", v)
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte, seed int64) {
		theorems(t, decode(t, b, seed))
	})
}
