// Package serve is the online matching subsystem: a long-running
// service over cem.Pipeline.Update. Arriving records are coalesced by an
// async Batcher (latency bound + size bound + bounded-queue
// backpressure) and applied strictly serially by a Committer, which
// journals every batch before running it and publishes each result as an
// immutable snapshot through an atomic pointer swap. Reads (record,
// cluster and match-set lookups) are served concurrently from the last
// committed snapshot while the next update runs — snapshot isolation
// without locks on the read path.
//
// A stream's work is counted once, in Metrics: the Committer adds each
// committed update's RunStats (matcher calls, verdict memo, resilience
// counters) and its warm, forced or cold mode into it. The
// Prometheus-text /metrics endpoint exports those counts beside ingest
// lag, queue depth and per-round latency histograms; /stats reports the
// committed state and its last update.
//
// The package is intentionally reusable below the HTTP surface:
// Committer alone drives `emmatch -ingest` batch replay (its -v totals
// are a Metrics the CLI hands the committer), so the CLI replay and the
// serving path share one commit implementation.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	cem "repro"
	"repro/match"
)

// Config assembles a Service. The zero value serves the default
// pipeline (SMP × mln) ephemerally (no state directory: nothing
// journaled, nothing stored, no restart).
type Config struct {
	// Matcher and Scheme select the pipeline ("mln"/"rules"/registered;
	// nomp/smp/mmp — the scheme must have an incremental path).
	Matcher string
	Scheme  cem.Scheme
	// MaxNeighborhood bounds canopy cores (0 = unbounded).
	MaxNeighborhood int
	// Parallelism is the matcher-stage worker count.
	Parallelism int
	// DatasetName names the synthesized dataset.
	DatasetName string
	// RunnerOptions are appended to the pipeline's runner options
	// (progress hooks, backends, ...).
	RunnerOptions []cem.RunnerOption

	// StateDir is the service's durable root: StateDir/journal holds the
	// record journal (every accepted batch, written before it is
	// applied) and StateDir/store the store the committer saves every
	// committed state into. Restarting a service on the same StateDir
	// reopens the stored state and replays only the journaled batches past
	// it. Empty = ephemeral.
	StateDir string
	// Store names the built-in store (cem.OpenStore: "mem" or "disk")
	// opened under StateDir/store; empty means "disk". Requires StateDir.
	Store string

	// Batching bounds the ingest batcher (see BatcherConfig).
	Batching BatcherConfig
	// MaxBodyBytes bounds one POST body (default 8 MiB).
	MaxBodyBytes int64

	// Logf, when set, receives recovery events (quarantined journal
	// files). Nil is silent.
	Logf func(format string, args ...any)
}

// Service is the HTTP matching service. Build with New, mount it as an
// http.Handler, and stop it with Shutdown (graceful drain) or Kill
// (abort in-flight work; the journal and the store recover it).
type Service struct {
	cfg       Config
	metrics   *Metrics
	committer *Committer
	batcher   *Batcher
	mux       *http.ServeMux
	started   time.Time

	store      match.Store // nil without a state directory
	storeClose sync.Once

	applyCancel context.CancelFunc
}

// closeStore closes the service's store exactly once (Shutdown and Kill
// may both run). Safe on a nil store.
func (s *Service) closeStore() {
	s.storeClose.Do(func() {
		if s.store != nil {
			if err := s.store.Close(); err != nil && s.cfg.Logf != nil {
				s.cfg.Logf("closing store: %v", err)
			}
		}
	})
}

// New builds the pipeline, recovers any journaled state from
// cfg.StateDir, and starts the ingest batcher. The passed context
// governs recovery AND all future update work: canceling it is the
// non-graceful kill path.
func New(ctx context.Context, cfg Config) (*Service, error) {
	if cfg.Matcher == "" {
		cfg.Matcher = cem.MatcherMLN
	}
	if cfg.Scheme == "" {
		cfg.Scheme = cem.SchemeSMP
	}
	if cfg.DatasetName == "" {
		cfg.DatasetName = "emserve"
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	// Matchers resolve lazily (at the first Update), so an unknown name
	// would otherwise start a service that can never commit a batch.
	if !slices.Contains(cem.Matchers(), cfg.Matcher) {
		return nil, fmt.Errorf("serve: unknown matcher %q (registered: %s)",
			cfg.Matcher, strings.Join(cem.Matchers(), ", "))
	}
	m := NewMetrics()

	ropts := []cem.RunnerOption{cem.WithProgress(m.ProgressObserver())}
	if cfg.Parallelism > 1 {
		ropts = append(ropts, cem.WithParallelism(cfg.Parallelism))
	}
	if cfg.StateDir == "" && cfg.Store != "" {
		return nil, fmt.Errorf("serve: a store (%q) requires a state directory", cfg.Store)
	}
	var st match.Store
	if cfg.StateDir != "" {
		if cfg.Store == "" {
			cfg.Store = "disk"
		}
		var err error
		st, err = cem.OpenStore(cfg.Store,
			cem.WithStoreDir(filepath.Join(cfg.StateDir, "store")),
			cem.WithStoreLog(cfg.Logf))
		if err != nil {
			return nil, fmt.Errorf("serve: opening store: %w", err)
		}
	}
	failed := func(err error) (*Service, error) {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	ropts = append(ropts, cfg.RunnerOptions...)

	pipe, err := cem.NewPipeline(
		cem.WithDatasetName(cfg.DatasetName),
		cem.WithMatcher(cfg.Matcher),
		cem.WithScheme(cfg.Scheme),
		cem.WithMaxNeighborhood(cfg.MaxNeighborhood),
		cem.WithRunnerOptions(ropts...),
	)
	if err != nil {
		return failed(err)
	}

	copts := []CommitterOption{WithMetrics(m)}
	if st != nil {
		copts = append(copts, WithJournal(filepath.Join(cfg.StateDir, "journal")), WithStore(st))
	}
	if cfg.Logf != nil {
		copts = append(copts, WithCommitterLog(cfg.Logf))
	}
	committer, err := NewCommitter(pipe, copts...)
	if err != nil {
		return failed(err)
	}
	if _, err := committer.Recover(ctx); err != nil {
		return failed(err)
	}

	applyCtx, cancel := context.WithCancel(ctx)
	s := &Service{
		cfg:         cfg,
		metrics:     m,
		committer:   committer,
		batcher:     NewBatcher(applyCtx, cfg.Batching, committer.Apply, m),
		store:       st,
		started:     time.Now(),
		applyCancel: cancel,
	}
	s.routes()
	return s, nil
}

// Snapshot returns the current committed state (never nil).
func (s *Service) Snapshot() *Committed { return s.committer.Snapshot() }

// Metrics exposes the service's metrics registry.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Ingest enqueues records programmatically — the same path POST /records
// takes, refusing the same keys. The returned channel receives the
// commit result.
func (s *Service) Ingest(ctx context.Context, records []cem.Record) (<-chan ApplyResult, error) {
	if err := s.admit(records); err != nil {
		return nil, err
	}
	return s.batcher.Enqueue(ctx, records)
}

// admit refuses a batch the journal could not hold (see checkKeys) before
// it is enqueued: queued, it would be coalesced with other requests, and
// the journal's refusal would fail them all.
func (s *Service) admit(records []cem.Record) error {
	if err := checkKeys(records); err != nil {
		s.metrics.RejectedRecords.Add(int64(len(records)))
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Shutdown drains gracefully: no new ingests are accepted, everything
// already queued is flushed through the committer (journaled and stored
// as usual), then the service stops. After Shutdown returns nil, a New on
// the same StateDir reopens the identical state from the store, without
// calling the matcher. ctx bounds the drain; on expiry the in-flight
// update is aborted (it recovers on restart like a kill).
func (s *Service) Shutdown(ctx context.Context) error {
	start := time.Now()
	done := make(chan struct{})
	go func() {
		s.batcher.Close()
		close(done)
	}()
	select {
	case <-done:
		s.metrics.ShutdownDrainSec.Observe(time.Since(start).Seconds())
		s.closeStore()
		return nil
	case <-ctx.Done():
		s.applyCancel() // abort the in-flight update; the journal has it
		<-done
		s.closeStore()
		return fmt.Errorf("serve: shutdown drain aborted: %w", ctx.Err())
	}
}

// Kill aborts the in-flight update immediately (non-graceful stop, for
// crash testing): queued and in-flight batches fail with a cancellation,
// but every accepted batch is already journaled, so a restart on the
// same StateDir recovers them.
func (s *Service) Kill() {
	s.applyCancel()
	s.batcher.Close()
	s.closeStore()
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Service) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /records", s.handleIngest)
	s.mux.HandleFunc("GET /records/{key}", s.read(func(c *Committed, key string) (any, bool) {
		v, ok := c.Lookup(key)
		return v, ok
	}))
	s.mux.HandleFunc("GET /cluster/{key}", s.read(func(c *Committed, key string) (any, bool) {
		v, ok := c.Cluster(key)
		return v, ok
	}))
	s.mux.HandleFunc("GET /matches", s.handleMatches)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// ingestRecord is the JSON ingest form; group/gold omitted mean
// ungrouped/unlabeled (-1).
type ingestRecord struct {
	Key   string `json:"key"`
	Group *int32 `json:"group"`
	Gold  *int32 `json:"gold"`
}

// ingestResponse acknowledges a POST /records.
type ingestResponse struct {
	Accepted int  `json:"accepted"`
	Seq      int  `json:"seq,omitempty"`     // committed seq (wait=1 only)
	Records  int  `json:"records,omitempty"` // committed records (wait=1 only)
	Matches  int  `json:"matches,omitempty"` // committed matches (wait=1 only)
	Queued   bool `json:"queued"`            // true when not waited for commit
}

// handleIngest parses a batch (JSON array or records TSV), enqueues it,
// and either acknowledges the enqueue (202) or, with ?wait=1, blocks
// until the batch's commit and reports the committed state (200).
func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var records []cem.Record
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		var in []ingestRecord
		if err := json.NewDecoder(body).Decode(&in); err != nil {
			s.badRequest(w, fmt.Errorf("decoding JSON records: %w", err))
			return
		}
		for _, rec := range in {
			br := cem.BasicRecord{Key: rec.Key, Group: -1, Gold: -1}
			if rec.Group != nil {
				br.Group = *rec.Group
			}
			if rec.Gold != nil {
				br.Gold = *rec.Gold
			}
			records = append(records, br)
		}
	} else {
		_, recs, err := cem.ReadRecords(body)
		if err != nil {
			s.badRequest(w, fmt.Errorf("decoding TSV records: %w", err))
			return
		}
		records = recs
	}
	if len(records) == 0 {
		s.badRequest(w, fmt.Errorf("empty batch"))
		return
	}
	if err := s.admit(records); err != nil {
		s.badRequest(w, err)
		return
	}

	done, err := s.batcher.Enqueue(r.Context(), records)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	resp := ingestResponse{Accepted: len(records), Queued: true}
	status := http.StatusAccepted
	if r.URL.Query().Get("wait") != "" {
		select {
		case res := <-done:
			if res.Err != nil {
				http.Error(w, res.Err.Error(), http.StatusServiceUnavailable)
				return
			}
			resp.Queued = false
			resp.Seq = res.State.Seq
			resp.Records = res.State.Records()
			resp.Matches = res.State.Matches()
			status = http.StatusOK
		case <-r.Context().Done():
			// The records stay queued; the client just stopped waiting.
		}
	}
	writeJSON(w, status, resp)
}

// read wraps a snapshot lookup endpoint: one atomic snapshot load, one
// lookup, JSON out.
func (s *Service) read(lookup func(*Committed, string) (any, bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.Reads.Inc()
		snap := s.committer.Snapshot()
		v, ok := lookup(snap, r.PathValue("key"))
		if !ok {
			s.metrics.ReadMiss.Inc()
			http.Error(w, "unknown record key", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, v)
		s.metrics.ReadSeconds.Observe(time.Since(start).Seconds())
	}
}

// handleMatches dumps the committed match set in the repo's canonical
// fixture form (text/plain), prefixed with a seq comment so scrapes can
// correlate with /stats.
func (s *Service) handleMatches(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.Reads.Inc()
	snap := s.committer.Snapshot()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Emserve-Seq", fmt.Sprint(snap.Seq))
	fmt.Fprint(w, snap.RenderMatches())
	s.metrics.ReadSeconds.Observe(time.Since(start).Seconds())
}

// statsResponse is the /stats JSON document.
type statsResponse struct {
	Seq            int       `json:"seq"`
	Records        int       `json:"records"`
	Entities       int       `json:"entities"`
	MatchPairs     int       `json:"match_pairs"`
	CommittedAt    time.Time `json:"committed_at"`
	UptimeSeconds  float64   `json:"uptime_seconds"`
	QueueRequests  int       `json:"queue_requests"`
	QueueRecords   int       `json:"queue_records"`
	IngestLag      float64   `json:"ingest_lag_seconds"`
	Matcher        string    `json:"matcher"`
	Scheme         string    `json:"scheme"`
	LastWarm       bool      `json:"last_update_warm"`
	LastForced     bool      `json:"last_update_forced"`
	LastBlockingMS float64   `json:"last_blocking_ms"`
	LastMatchingMS float64   `json:"last_matching_ms"`
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.committer.Snapshot()
	qreqs, qrecs, oldest := s.batcher.Depth()
	resp := statsResponse{
		Seq:           snap.Seq,
		Records:       snap.Records(),
		Entities:      snap.Entities(),
		MatchPairs:    snap.Matches(),
		CommittedAt:   snap.At,
		UptimeSeconds: time.Since(s.started).Seconds(),
		QueueRequests: qreqs,
		QueueRecords:  qrecs,
		IngestLag:     oldest.Seconds(),
		Matcher:       s.cfg.Matcher,
		Scheme:        string(s.cfg.Scheme),
	}
	if snap.Result != nil {
		resp.LastWarm = snap.Result.WarmStarted
		resp.LastForced = snap.Result.ForcedRerun
		resp.LastBlockingMS = float64(snap.Result.BlockingTime) / float64(time.Millisecond)
		resp.LastMatchingMS = float64(snap.Result.MatchingTime) / float64(time.Millisecond)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.committer.Snapshot()
	qreqs, qrecs, oldest := s.batcher.Depth()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w, GaugeValues{
		QueueDepth:       qreqs,
		PendingRecords:   qrecs,
		OldestPendingAge: oldest.Seconds(),
		CommittedSeq:     snap.Seq,
		CommittedRecs:    snap.Records(),
		CommittedMatches: snap.Matches(),
		CommittedEnts:    snap.Entities(),
	})
}

func (s *Service) badRequest(w http.ResponseWriter, err error) {
	s.metrics.BadInputs.Inc()
	http.Error(w, err.Error(), http.StatusBadRequest)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
