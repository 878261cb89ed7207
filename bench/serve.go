package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	cem "repro"
	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/match"
)

// serve-ingest is the serving path, writes beside reads: an in-process
// serve.Service (state directory, disk store, SMP × mln) behind an
// httptest.Server. Closed loop, two connections: one writer POSTs the corpus
// as JSON batches to /records?wait=1, one reader GETs /cluster/{key} on
// acknowledged keys with a fixed think time. One operation is one POST, sent
// → 200 with the committed sequence number.
const (
	serveScale      = 0.5
	serveSmokeScale = 0.1
	servePool       = 11 // corpora per untraced run (at refSeconds)
	serveTracedPool = 12 // corpora per traced run
	serveBatch      = 32
	serveThink      = time.Millisecond
	serveRecoveries = 5
)

// serveConfig is the service under test. MaxDelay is set explicitly: the
// 200 ms default is the floor of every single-writer wait=1 commit and
// would mask the commit path (see README).
func serveConfig(stateDir string) serve.Config {
	return serve.Config{
		Matcher: cem.MatcherMLN, Scheme: cem.SchemeSMP, StateDir: stateDir, Store: "disk",
		Batching: serve.BatcherConfig{MaxBatch: serveBatch, MaxDelay: time.Millisecond},
	}
}

// serveCycle is one corpus ingested into one fresh service.
type serveCycle struct {
	records  []cem.Record
	bodies   [][]byte // JSON batches, in arrival order
	stateDir string
	svc      *serve.Service
	srv      *httptest.Server

	commits []float64 // seconds per POST
	reads   []float64 // seconds per GET
	cost              // of the whole ingest
	matches string    // final GET /matches
}

// serveSetUps is how many times a cycle's millisecond of set-up runs.
const serveSetUps = 5

// serveSetup generates corpus i, encodes its batches and starts a fresh
// service on a new state directory. Returns the set-up's wall seconds.
func serveSetup(e *env, i int) (*serveCycle, float64, error) {
	scale := serveScale
	if e.smoke {
		scale = serveSmokeScale
	}
	var c *serveCycle
	setup, err := setUp(serveSetUps, func() (err error) {
		c = &serveCycle{stateDir: filepath.Join(e.scratchDir(), fmt.Sprintf("state-%d", i))}
		if c.records, err = cem.GenerateRecords(cem.DBLP, scale, e.corpusSeed(i)); err != nil {
			return err
		}
		type rec struct {
			Key   string `json:"key"`
			Group int32  `json:"group"`
			Gold  int32  `json:"gold"`
		}
		for lo := 0; lo < len(c.records); lo += serveBatch {
			hi := min(lo+serveBatch, len(c.records))
			batch := make([]rec, 0, serveBatch)
			for _, r := range c.records[lo:hi] {
				b := r.(cem.BasicRecord)
				batch = append(batch, rec{b.Key, b.Group, b.Gold})
			}
			body, err := json.Marshal(batch)
			if err != nil {
				return err
			}
			c.bodies = append(c.bodies, body)
		}
		if c.svc, err = serve.New(context.Background(), serveConfig(c.stateDir)); err != nil {
			return err
		}
		c.srv = httptest.NewServer(c.svc)
		return nil
	}, func() {
		c.stop()
		os.RemoveAll(c.stateDir)
	})
	return c, setup, err
}

// stop closes the server and kills the service; the state directory stays.
func (c *serveCycle) stop() {
	c.srv.Close()
	c.svc.Kill()
}

// ingest streams the corpus through the service while the reader runs, each
// POST in a span of tr (nil: untraced). Every request is an operation: a POST
// or GET that is not a 200 is a failed one.
func (c *serveCycle) ingest(e *env, tr *tracer) error {
	client := c.srv.Client()
	var acked atomic.Int64 // records acknowledged as committed
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readFailed int
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(e.corpusSeed(0)))
		for {
			select {
			case <-stop:
				return
			case <-time.After(serveThink):
			}
			n := acked.Load()
			if n == 0 {
				continue
			}
			key := c.records[rng.Int63n(n)].RecordKey()
			t0 := time.Now()
			status, _, err := get(client, c.srv.URL+"/cluster/"+url.PathEscape(key))
			c.reads = append(c.reads, time.Since(t0).Seconds())
			if err != nil || status != http.StatusOK {
				readFailed++
			}
		}
	}()

	var err error
	c.cost, err = timed(func() error {
		for i, body := range c.bodies {
			var resp *http.Response
			var err, derr error
			var ack struct {
				Seq     int `json:"seq"`
				Records int `json:"records"`
			}
			c.commits = append(c.commits, tr.do("serve.POST /records", func() {
				if resp, err = client.Post(c.srv.URL+"/records?wait=1", "application/json", bytes.NewReader(body)); err != nil {
					return
				}
				derr = json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
			}))
			if err != nil {
				return err
			}
			sent := min((i+1)*serveBatch, len(c.records))
			e.check(resp.StatusCode == http.StatusOK && derr == nil && ack.Seq == i+1 && ack.Records == sent,
				"POST batch %d: status %d, seq %d, records %d (want 200, %d, %d)", i, resp.StatusCode, ack.Seq, ack.Records, i+1, sent)
			acked.Store(int64(sent))
		}
		return nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	e.attempted += len(c.reads)
	e.failed += readFailed
	if readFailed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %d of %d GET /cluster of an acknowledged key were not 200\n", e.workload, readFailed, len(c.reads))
	}
	status, body, err := get(client, c.srv.URL+"/matches")
	if err != nil {
		return err
	}
	e.check(status == http.StatusOK, "GET /matches: status %d", status)
	c.matches = body
	return nil
}

func get(client *http.Client, url string) (int, string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), err
}

// scratchDir is where this process keeps service state and store files:
// inside the checkout, removed when the run ends.
func (e *env) scratchDir() string {
	return filepath.Join(e.outDir(), fmt.Sprintf("tmp-%d", os.Getpid()))
}

// serveCycleRun ingests corpus i into a fresh service (POSTs in spans of tr;
// nil: untraced) and checks what the service then holds. The caller stops
// the cycle.
func serveCycleRun(e *env, i int, tr *tracer) (*serveCycle, float64, error) {
	c, setup, err := serveSetup(e, i)
	if err != nil {
		return nil, 0, err
	}
	if err := c.ingest(e, tr); err != nil {
		c.stop()
		return nil, 0, err
	}
	snap := c.svc.Snapshot()
	e.check(snap.Records() == len(c.records), "corpus %d: the service holds %d of %d records", i, snap.Records(), len(c.records))
	e.sameOutput(i, c.matches, "GET /matches")
	return c, setup, nil
}

func runServe(e *env) error {
	defer os.RemoveAll(e.scratchDir())
	var err error
	if e.traced {
		err = e.tracePool(serveTracedPool, func(i int) error {
			c, _, err := serveCycleRun(e, i, nil)
			if err != nil {
				return err
			}
			serveLayers(e, c)
			if i == 1 { // once: the layers below do not depend on the corpus drawn
				err = serveBelow(e, c)
			}
			c.stop()
			os.RemoveAll(c.stateDir) // the traced cycle starts on a fresh directory of the same name
			if err != nil {
				return err
			}
			return serveTraced(e, i, c)
		})
		e.set("cem.peak_rss_mb", peakRSSMB())
	} else {
		var f1 prfPool
		err = e.measurePool(servePool, func(i, pass int) (map[string]float64, error) {
			c, setup, err := serveCycleRun(e, i, nil)
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(c.stateDir)
			defer c.stop()
			if res := c.svc.Snapshot().Result; pass == 0 && res != nil && res.Report != nil {
				f1.add(res.Report.PRF)
			}
			// One operation is one POST; a corpus's figure is its median POST.
			posts := float64(len(c.bodies))
			return map[string]float64{"setup_s": setup, "op_wall_s": median(c.commits), "cpu_s": c.cpu / posts, "alloc_mb": c.allocMB / posts}, nil
		})
		e.set("pair_f1", f1.f1())
	}
	if err != nil {
		return err
	}

	// Corpus 0 once more, keeping its state: what the service serves must
	// equal a cold run over the same arrival order…
	c0, _, err := serveCycleRun(e, 0, nil)
	if err != nil {
		return err
	}
	c0.stop()
	p, err := cem.NewPipeline()
	if err != nil {
		return err
	}
	cold, err := p.Run(context.Background(), c0.records)
	if err != nil {
		return err
	}
	e.check(c0.matches == renderMatches(cold.Matches), "GET /matches differs from a cold Pipeline.Run over the same arrival order")
	// …and every restart on the killed service's state must serve it again.
	for k := 0; k < serveRecoveries; k++ {
		var svc *serve.Service
		w := e.tr.do("serve.New(recover)", func() { svc, err = serve.New(context.Background(), serveConfig(c0.stateDir)) })
		if err != nil {
			return err
		}
		e.add("serve.recover_s", w)
		snap := svc.Snapshot()
		e.check(snap.RenderMatches() == c0.matches && snap.Records() == len(c0.records), "recovery %d serves a different state", k)
		svc.Kill()
	}
	e.checkExpected()
	return nil
}

// serveTraced ingests corpus i once more with a span around every POST: the
// spans must account for the untraced ingest ref measured on the same corpus.
func serveTraced(e *env, i int, ref *serveCycle) error {
	var c *serveCycle
	var err error
	e.tr.do("serve.ingest", func() { c, _, err = serveCycleRun(e, i, e.tr) })
	if err != nil {
		return err
	}
	c.stop()
	os.RemoveAll(c.stateDir)
	e.add("cem.untraced_wall_s", ref.wall)
	e.add("cem.stage_sum_s", sum(c.commits))
	e.add("cem.attribution_gap", ratio(math.Abs(ref.wall-sum(c.commits)), ref.wall))
	e.add("cem.trace_overhead_ratio", ratio(c.wall, ref.wall))
	e.add("cem.alloc_mb_per_run", ref.allocMB)
	e.add("cem.gc_count_per_run", ref.gcs)
	return nil
}

// serveLayers records what the client saw and what serve.Metrics counted
// over one ingest.
func serveLayers(e *env, c *serveCycle) {
	m := c.svc.Metrics()
	batches := float64(m.CommittedBatches.Value())
	e.add("serve.commit_p50_ms", median(c.commits)*1e3)
	e.add("serve.commit_p90_ms", quantile(c.commits, 0.9)*1e3)
	e.add("serve.records_per_s", ratio(float64(len(c.records)), c.wall))
	e.add("serve.read_p50_us", median(c.reads)*1e6)
	e.add("serve.read_p99_us", quantile(c.reads, 0.99)*1e6)
	e.add("serve.reads", float64(len(c.reads)))
	e.add("serve.update_busy_s", m.UpdateSeconds.Sum())
	e.add("serve.blocking_busy_s", m.BlockingSeconds.Sum())
	e.add("serve.matching_busy_s", m.MatchingSeconds.Sum())
	// HTTP decode, batcher, journal fsync, store save, snapshot build.
	e.add("serve.commit_overhead_s", sum(c.commits)-m.UpdateSeconds.Sum())
	e.add("serve.warm_ratio", ratio(float64(m.UpdatesWarm.Value()), batches))
	e.add("serve.forced_rerun_ratio", ratio(float64(m.UpdatesForced.Value()), batches))
	e.add("serve.matcher_calls_per_batch", ratio(float64(m.MatcherCalls.Value()), batches))
	e.add("mln.match_calls", float64(m.MatcherCalls.Value()))
	e.add("mln.memo_hit_ratio", ratio(float64(m.MemoHits.Value()), float64(m.MemoHits.Value()+m.MemoMisses.Value()+m.MemoInvals.Value())))
	e.add("serve.state_dir_bytes_per_record", ratio(float64(dirBytes(c.stateDir)), float64(len(c.records))))
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// serveBelow times the layers under the service on the same batches, without
// HTTP, journal or batcher: the incremental blocking index alone, the
// Pipeline.Update fold, and the store.
func serveBelow(e *env, c *serveCycle) error {
	ctx := context.Background()
	raw := toBib(c.records)
	ix, err := canopy.NewIndex(cem.DefaultOptions().Canopy)
	if err != nil {
		return err
	}
	add := 0.0
	for lo := 0; lo < len(raw); lo += serveBatch {
		d, err := bib.DatasetFromRecords("records", raw[:min(lo+serveBatch, len(raw))])
		if err != nil {
			return err
		}
		add += e.tr.do("canopy.Index.AddFrom", func() { _, _, err = ix.AddFrom(ctx, d, lo) })
		if err != nil {
			return err
		}
	}
	e.add("canopy.index_add_s", add)

	p, err := cem.NewPipeline()
	if err != nil {
		return err
	}
	var res *cem.PipelineResult
	fold := 0.0
	for lo := 0; lo < len(c.records); lo += serveBatch {
		fold += e.tr.do("cem.Pipeline.Update", func() {
			res, err = p.Update(ctx, res, c.records[lo:min(lo+serveBatch, len(c.records))])
		})
		if err != nil {
			return err
		}
	}
	e.add("cem.update_fold_s", fold)
	e.check(renderMatches(res.Matches) == c.matches, "the Pipeline.Update fold differs from the served state")

	return storeLayer(e, p, res, c)
}

// storeLayer times the store over the final evidence keys, put in
// per-commit-sized chunks as the service's runner puts them.
func storeLayer(e *env, p *cem.Pipeline, res *cem.PipelineResult, c *serveCycle) error {
	sorted := res.Matches.SortedKeys()
	if len(sorted) == 0 {
		return nil
	}
	keys := make([]uint64, len(sorted))
	for i, k := range sorted {
		keys[i] = uint64(k)
	}
	chunk := max(1, len(keys)/len(c.bodies))
	put := func(s match.Store) (float64, error) {
		var err error
		w := e.tr.do("store."+s.Name()+".PutEvidence", func() {
			for lo := 0; lo < len(keys) && err == nil; lo += chunk {
				err = s.PutEvidence(keys[lo:min(lo+chunk, len(keys))])
			}
		})
		return w, err
	}
	n := float64(len(keys))

	mem, err := store.Open("mem")
	if err != nil {
		return err
	}
	w, err := put(mem)
	if err != nil {
		return err
	}
	e.add("store.mem_put_keys_per_s", ratio(n, w))

	dir := filepath.Join(e.scratchDir(), "store-bench")
	disk, err := store.Open("disk", store.WithDir(dir))
	if err != nil {
		return err
	}
	defer disk.Close()
	if w, err = put(disk); err != nil {
		return err
	}
	e.add("store.disk_put_keys_per_s", ratio(n, w))
	e.add("store.disk_bytes_per_key", float64(dirBytes(dir))/n)
	missing := 0
	w = e.tr.do("store.disk.HasEvidence", func() {
		for _, k := range keys {
			if ok, herr := disk.HasEvidence(k); herr != nil || !ok {
				missing++
			}
		}
	})
	e.add("store.disk_has_ns", w*1e9/n)
	ranged := 0
	w = e.tr.do("store.disk.EvidenceRange", func() {
		err = disk.EvidenceRange(0, ^uint64(0), func(uint64) bool { ranged++; return true })
	})
	if err != nil {
		return err
	}
	e.add("store.disk_range_keys_per_s", ratio(n, w))
	e.check(missing == 0 && ranged == len(keys), "disk store: %d keys missing, range yielded %d of %d", missing, ranged, len(keys))

	e.add("store.save_state_s", e.tr.do("cem.SaveState", func() { err = cem.SaveState(disk, res, len(c.bodies)) }))
	if err != nil {
		return err
	}
	var reopened *cem.PipelineResult
	e.add("store.reopen_s", e.tr.do("cem.Pipeline.Reopen", func() { reopened, _, err = p.Reopen(context.Background(), c.records, disk) }))
	if err != nil {
		return err
	}
	e.check(renderMatches(reopened.Matches) == c.matches, "the reopened state differs from the served state")
	return nil
}
