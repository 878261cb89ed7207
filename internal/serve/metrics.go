package serve

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/match"
)

// This file is a minimal, dependency-free metrics registry that renders
// the Prometheus text exposition format (version 0.0.4): counters,
// gauges computed at scrape time, and fixed-bucket histograms. Only the
// stdlib is used — the service must not pull in a client library the
// container doesn't have, and the subset below (atomic counters,
// cumulative buckets, HELP/TYPE headers) is all an online matcher needs
// to expose ingest lag, warm/cold ratios and latency distributions.

// A Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	total  atomic.Int64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets of the latency histograms: 1ms to 60s, roughly exponential —
// blocking an arriving batch is millisecond-scale, a forced cold re-run
// on a large corpus can take tens of seconds.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// Buckets of the per-batch size/work histograms.
var sizeBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Metrics is the service's instrumentation: every counter and histogram
// the /metrics endpoint exports. One Metrics instance is shared by the
// batcher (queue/lag), the committer (update outcomes) and the HTTP
// layer (reads); the scrape-time gauges (queue depth, committed state)
// are supplied by the service at render time via GaugeValues, so the
// registry itself holds no references to live components.
type Metrics struct {
	// Ingest path.
	IngestedRecords Counter // records accepted into the ingest queue
	RejectedRecords Counter // records refused at the door (validation)

	// Commit path (one Update per committed batch).
	CommittedBatches Counter
	CommittedRecords Counter
	UpdatesCold      Counter // first batch: no prior to warm-start from
	UpdatesWarm      Counter // incremental fast path
	UpdatesForced    Counter // non-additive delta forced a full re-run
	UpdateErrors     Counter
	MatcherCalls     Counter
	MemoHits         Counter // matcher verdict-memo hits across committed updates
	MemoMisses       Counter // verdict-memo misses (computed fresh, no entry)
	MemoInvals       Counter // verdict-memo invalidations (relevant evidence changed)

	// Distributed-backend resilience, folded in per committed update
	// (all zero on in-process backends; see core.RunStats).
	Reassignments Counter // partitions replayed on a live worker after a death/deadline
	RetriedSends  Counter // transport sends retried after a transient error
	LateBatches   Counter // stale-epoch ShardBatches dropped (zombie worker answers)

	// Durability.
	JournalQuarantined Counter // torn trailing journal files renamed .corrupt by Recover
	StoreReopens       Counter // restarts served by reopening the store snapshot (no replay)

	// Reads.
	Reads     Counter
	ReadMiss  Counter // lookups of unknown record keys
	BadInputs Counter // malformed ingest payloads

	// Distributions.
	IngestLag        *Histogram // enqueue → commit, seconds
	UpdateSeconds    *Histogram // whole Pipeline.Update wall time
	BlockingSeconds  *Histogram // each update up to the matching stage (PipelineResult.BlockingTime)
	MatchingSeconds  *Histogram // matching stage of each update
	RoundSeconds     *Histogram // per matching round, via progress events
	BatchRecords     *Histogram // records per committed batch
	BatchCalls       *Histogram // matcher calls per committed batch
	ReadSeconds      *Histogram // read-endpoint latency
	ShutdownDrainSec *Histogram // graceful-shutdown drain time

	// Round tracking state for the progress observer (guarded: progress
	// callbacks are delivered sequentially, but BeginUpdate/EndUpdate run
	// on the committer goroutine).
	roundMu    sync.Mutex
	roundOpen  bool
	roundStart time.Time
}

// NewMetrics builds the full registry.
func NewMetrics() *Metrics {
	return &Metrics{
		IngestLag:        NewHistogram(latencyBuckets...),
		UpdateSeconds:    NewHistogram(latencyBuckets...),
		BlockingSeconds:  NewHistogram(latencyBuckets...),
		MatchingSeconds:  NewHistogram(latencyBuckets...),
		RoundSeconds:     NewHistogram(latencyBuckets...),
		BatchRecords:     NewHistogram(sizeBuckets...),
		BatchCalls:       NewHistogram(sizeBuckets...),
		ReadSeconds:      NewHistogram(latencyBuckets...),
		ShutdownDrainSec: NewHistogram(latencyBuckets...),
	}
}

// ProgressObserver returns a Runner progress callback that measures the
// wall time of each matching round: a round ends when the first event of
// the next round arrives (or when EndUpdate closes the run). Wire it
// into the pipeline with cem.WithProgress; the committer brackets every
// update with BeginUpdate/EndUpdate so rounds never smear across runs.
func (m *Metrics) ProgressObserver() func(match.ProgressEvent) {
	var lastRound int
	return func(e match.ProgressEvent) {
		m.roundMu.Lock()
		defer m.roundMu.Unlock()
		switch {
		case !m.roundOpen:
			m.roundOpen, m.roundStart, lastRound = true, time.Now(), e.Round
		case e.Round != lastRound:
			now := time.Now()
			m.RoundSeconds.Observe(now.Sub(m.roundStart).Seconds())
			m.roundStart, lastRound = now, e.Round
		}
	}
}

// BeginUpdate resets the round observer for a fresh run.
func (m *Metrics) BeginUpdate() {
	m.roundMu.Lock()
	m.roundOpen = false
	m.roundMu.Unlock()
}

// EndUpdate closes the final open round of a run.
func (m *Metrics) EndUpdate() {
	m.roundMu.Lock()
	if m.roundOpen {
		m.RoundSeconds.Observe(time.Since(m.roundStart).Seconds())
		m.roundOpen = false
	}
	m.roundMu.Unlock()
}

// GaugeValues carries the scrape-time gauges: live state the registry's
// cumulative metrics cannot represent. The service fills it from the
// batcher and the current committed snapshot on every render.
type GaugeValues struct {
	QueueDepth       int // ingest requests queued or pending a flush
	PendingRecords   int // records queued or pending a flush
	OldestPendingAge float64
	CommittedSeq     int
	CommittedRecs    int
	CommittedMatches int
	CommittedEnts    int
}

// WritePrometheus renders every metric in the Prometheus text format.
func (m *Metrics) WritePrometheus(w io.Writer, g GaugeValues) error {
	bw := &errWriter{w: w}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(v))
	}

	counter("emserve_ingested_records_total", "Records accepted into the ingest queue.", m.IngestedRecords.Value())
	counter("emserve_rejected_records_total", "Records rejected by ingest validation.", m.RejectedRecords.Value())
	counter("emserve_committed_batches_total", "Delta batches committed through Pipeline.Update.", m.CommittedBatches.Value())
	counter("emserve_committed_records_total", "Records committed through Pipeline.Update.", m.CommittedRecords.Value())

	fmt.Fprintf(bw, "# HELP emserve_updates_total Completed updates by matching mode (cold first batch, warm incremental, forced full re-run).\n")
	fmt.Fprintf(bw, "# TYPE emserve_updates_total counter\n")
	fmt.Fprintf(bw, "emserve_updates_total{mode=\"cold\"} %d\n", m.UpdatesCold.Value())
	fmt.Fprintf(bw, "emserve_updates_total{mode=\"warm\"} %d\n", m.UpdatesWarm.Value())
	fmt.Fprintf(bw, "emserve_updates_total{mode=\"forced\"} %d\n", m.UpdatesForced.Value())

	counter("emserve_update_errors_total", "Updates that failed (the batch was not committed).", m.UpdateErrors.Value())
	counter("emserve_matcher_calls_total", "Matcher.Match invocations across all committed updates.", m.MatcherCalls.Value())
	counter("emserve_memo_hits_total", "Matcher verdict-memo hits across all committed updates.", m.MemoHits.Value())
	counter("emserve_memo_misses_total", "Matcher verdict-memo misses (computed fresh, no cached verdict).", m.MemoMisses.Value())
	counter("emserve_memo_invalidations_total", "Matcher verdict-memo invalidations (no cached verdict holds the relevant evidence).", m.MemoInvals.Value())
	counter("emserve_reassignments_total", "Partitions replayed on a live worker after a worker death or round-deadline breach.", m.Reassignments.Value())
	counter("emserve_retried_sends_total", "Transport sends retried after a transient error.", m.RetriedSends.Value())
	counter("emserve_late_batches_dropped_total", "Stale-epoch shard batches dropped (a zombie worker answered a reassigned partition).", m.LateBatches.Value())
	counter("emserve_journal_quarantined_total", "Torn trailing journal files quarantined (renamed .corrupt) during recovery.", m.JournalQuarantined.Value())
	counter("emserve_store_reopens_total", "Restarts recovered by reopening the store snapshot instead of replaying.", m.StoreReopens.Value())
	counter("emserve_reads_total", "Read requests served from the committed snapshot.", m.Reads.Value())
	counter("emserve_read_miss_total", "Read lookups of record keys absent from the committed snapshot.", m.ReadMiss.Value())
	counter("emserve_bad_inputs_total", "Malformed ingest payloads rejected with a client error.", m.BadInputs.Value())

	gauge("emserve_queue_depth", "Ingest requests waiting in the queue or pending a flush.", float64(g.QueueDepth))
	gauge("emserve_pending_records", "Records waiting in the queue or pending a flush.", float64(g.PendingRecords))
	gauge("emserve_ingest_lag_seconds", "Age of the oldest pending (uncommitted) ingest request.", g.OldestPendingAge)
	gauge("emserve_committed_seq", "Sequence number of the committed snapshot (batches committed).", float64(g.CommittedSeq))
	gauge("emserve_committed_records", "Records in the committed snapshot.", float64(g.CommittedRecs))
	gauge("emserve_committed_matches", "Match pairs in the committed snapshot.", float64(g.CommittedMatches))
	gauge("emserve_committed_entities", "Entity references in the committed snapshot.", float64(g.CommittedEnts))

	histogram(bw, "emserve_ingest_lag_commit_seconds", "Enqueue-to-commit latency of ingest requests.", m.IngestLag)
	histogram(bw, "emserve_update_seconds", "Wall time of each Pipeline.Update (blocking + matching).", m.UpdateSeconds)
	histogram(bw, "emserve_update_blocking_seconds", "Wall time of each update before matching: delta blocking, candidate enumeration and matcher grounding.", m.BlockingSeconds)
	histogram(bw, "emserve_update_matching_seconds", "Matching-stage wall time of each update.", m.MatchingSeconds)
	histogram(bw, "emserve_round_seconds", "Wall time of each matching round.", m.RoundSeconds)
	histogram(bw, "emserve_batch_records", "Records per committed batch.", m.BatchRecords)
	histogram(bw, "emserve_batch_matcher_calls", "Matcher calls per committed batch.", m.BatchCalls)
	histogram(bw, "emserve_read_seconds", "Latency of read endpoints.", m.ReadSeconds)
	histogram(bw, "emserve_shutdown_drain_seconds", "Drain time of graceful shutdowns.", m.ShutdownDrainSec)
	return bw.err
}

// histogram renders one histogram family with cumulative buckets. The
// per-bucket counters are snapshotted once and `_count` is the +Inf
// cumulative of that same snapshot — deriving it from h.Count() instead
// can disagree with the buckets when Observe runs concurrently with a
// scrape, which strict text-format parsers reject.
func histogram(w io.Writer, name, help string, h *Histogram) {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := int64(0)
	for i, b := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatFloat(b), cum)
	}
	cum += counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

// formatFloat renders a float the way Prometheus expects: plain decimal
// without a forced exponent, integers without a trailing ".0".
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// errWriter latches the first write error so render helpers stay terse.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}
