// Command emload is the load harness for emserve: k concurrent writers
// stream a generated corpus into the service while m readers hammer the
// snapshot endpoints, then the run is verified — every record accepted
// exactly once (none lost, none duplicated) and, when the journal is
// reachable, the served match set byte-identical to an offline cold run
// over the journaled arrival order.
//
// With no -url it starts an embedded emserve on a temporary state
// directory, so one invocation is a self-contained end-to-end check:
//
//	emload -writers 8 -readers 4 -kind hepth -scale 0.5
//	emload -url http://127.0.0.1:8080 -journal /var/lib/emserve/journal
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	cem "repro"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "emload: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("emload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target  = fs.String("url", "", "emserve base URL; empty starts an embedded service")
		journal = fs.String("journal", "", "the server's journal directory, for the cold-run comparison (automatic when embedded)")
		writers = fs.Int("writers", 4, "concurrent writers")
		readers = fs.Int("readers", 4, "concurrent readers")
		batch   = fs.Int("batch", 32, "records per POST")
		kind    = fs.String("kind", "hepth", "generated corpus kind: hepth | dblp | dblp-big | million")
		scale   = fs.Float64("scale", 0.25, "generated corpus scale")
		seed    = fs.Int64("seed", 42, "generation seed")
		matcher = fs.String("matcher", "mln", "matcher (must match the target server's)")
		scheme  = fs.String("scheme", "smp", "scheme (must match the target server's)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *writers < 1 || *readers < 0 || *batch < 1 {
		return fmt.Errorf("need -writers >= 1, -readers >= 0, -batch >= 1")
	}

	records, err := cem.GenerateRecords(cem.DatasetKind(*kind), *scale, *seed)
	if err != nil {
		return err
	}

	base := *target
	if base == "" {
		state, err := os.MkdirTemp("", "emload-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(state)
		svc, err := serve.New(context.Background(), serve.Config{
			Matcher: *matcher, Scheme: cem.Scheme(*scheme), StateDir: state,
			Batching: serve.BatcherConfig{MaxDelay: 20 * time.Millisecond},
		})
		if err != nil {
			return err
		}
		srv := httptest.NewServer(svc)
		defer srv.Close()
		defer svc.Kill()
		base = srv.URL
		*journal = filepath.Join(state, "journal")
		fmt.Fprintf(stderr, "emload: embedded emserve at %s (state %s)\n", base, state)
	}

	fmt.Fprintf(stdout, "emload: %d records, %d writers x %d-record batches, %d readers\n",
		len(records), *writers, *batch, *readers)
	start := time.Now()
	var (
		posted, reads, readMisses, torn atomic.Int64
		wg, rg                          sync.WaitGroup
		werrs                           = make(chan error, *writers)
		stopReaders                     = make(chan struct{})
	)

	// Writers: the corpus is split into contiguous shares, one per
	// writer; each share streams in -batch sized POSTs with ?wait=1, so
	// a writer's completion means its records are committed.
	share := (len(records) + *writers - 1) / *writers
	for w := 0; w < *writers; w++ {
		lo := w * share
		if lo >= len(records) {
			break
		}
		hi := min(lo+share, len(records))
		wg.Add(1)
		go func(part []cem.Record, id int) {
			defer wg.Done()
			for len(part) > 0 {
				n := min(*batch, len(part))
				var body bytes.Buffer
				if err := cem.WriteRecords(&body, fmt.Sprintf("writer-%d", id), part[:n]); err != nil {
					werrs <- err
					return
				}
				resp, err := http.Post(base+"/records?wait=1", "text/tab-separated-values", &body)
				if err != nil {
					werrs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					werrs <- fmt.Errorf("writer %d: POST /records: status %d", id, resp.StatusCode)
					return
				}
				posted.Add(int64(n))
				part = part[n:]
			}
		}(records[lo:hi], w)
	}

	// Readers: random snapshot lookups plus periodic /matches dumps,
	// each response checked for internal consistency (a torn snapshot
	// would show a match count disagreeing with its own pair lines).
	for r := 0; r < *readers; r++ {
		rg.Add(1)
		go func(id int) {
			defer rg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				reads.Add(1)
				if rng.Intn(8) == 0 {
					resp, err := http.Get(base + "/matches")
					if err != nil {
						continue
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					var n int
					if _, err := fmt.Sscanf(string(body), "# %d matches", &n); err != nil ||
						strings.Count(string(body), "\n") != n+1 {
						torn.Add(1)
					}
					continue
				}
				key := records[rng.Intn(len(records))].RecordKey()
				path := "/records/"
				if rng.Intn(2) == 0 {
					path = "/cluster/"
				}
				resp, err := http.Get(base + path + url.PathEscape(key))
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusNotFound {
					readMisses.Add(1) // not yet committed: expected early on
				}
			}
		}(r)
	}

	wg.Wait()
	close(stopReaders)
	rg.Wait()
	close(werrs)
	for err := range werrs {
		return err
	}
	elapsed := time.Since(start)

	// Verification 1: zero lost, zero duplicated. Every writer's waited
	// POSTs committed, so the served state must hold exactly the corpus.
	srvStats, dump, err := fetchState(base)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "emload: %d posted in %v, %d reads (%d early misses), server at seq %d with %d records\n",
		posted.Load(), elapsed.Round(time.Millisecond), reads.Load(), readMisses.Load(), srvStats.Seq, srvStats.Records)
	if torn.Load() > 0 {
		return fmt.Errorf("FAIL: %d torn /matches responses (snapshot isolation broken)", torn.Load())
	}
	if posted.Load() != int64(len(records)) || srvStats.Records != len(records) {
		return fmt.Errorf("FAIL: posted %d of %d records, server holds %d (lost or duplicated records)",
			posted.Load(), len(records), srvStats.Records)
	}

	// Verification 2: the served match set is byte-identical to an
	// offline cold run over the journaled arrival order.
	if *journal == "" {
		fmt.Fprintln(stdout, "emload: PASS (no -journal: cold-run comparison skipped)")
		return nil
	}
	arrival, err := readJournal(*journal)
	if err != nil {
		return err
	}
	if len(arrival) != len(records) {
		return fmt.Errorf("FAIL: journal holds %d records for %d posted", len(arrival), len(records))
	}
	pipe, err := cem.NewPipeline(
		cem.WithDatasetName("emload-cold"),
		cem.WithMatcher(*matcher),
		cem.WithScheme(cem.Scheme(*scheme)),
	)
	if err != nil {
		return err
	}
	cold, err := pipe.Run(context.Background(), arrival)
	if err != nil {
		return err
	}
	want := serve.RenderMatches(cold.Matches)
	if dump != want {
		return fmt.Errorf("FAIL: served matches diverge from the offline cold run over the arrival order (%d vs %d bytes)",
			len(dump), len(want))
	}
	fmt.Fprintf(stdout, "emload: PASS (%d matches byte-identical to the offline cold run)\n", len(cold.Matches))
	return nil
}

// loadStats is the subset of /stats emload verifies.
type loadStats struct {
	Seq     int `json:"seq"`
	Records int `json:"records"`
}

// fetchState grabs the final /stats and /matches documents.
func fetchState(base string) (loadStats, string, error) {
	var st loadStats
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return st, "", err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return st, "", err
	}
	resp, err = http.Get(base + "/matches")
	if err != nil {
		return st, "", err
	}
	dump, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return st, string(dump), err
}

// readJournal concatenates the journaled batches in commit order — the
// service's authoritative arrival order.
func readJournal(dir string) ([]cem.Record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "batch-*.tsv"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("journal %s holds no batches", dir)
	}
	sort.Strings(paths)
	var all []cem.Record
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		_, recs, rerr := cem.ReadRecords(f)
		f.Close()
		if rerr != nil {
			return nil, fmt.Errorf("%s: %w", p, rerr)
		}
		all = append(all, recs...)
	}
	return all, nil
}
