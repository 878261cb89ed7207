package serve

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// This file pins the /metrics output to the Prometheus text exposition
// format, version 0.0.4, with a strict line-by-line parser: every family
// must announce HELP then TYPE before its first sample, family names may
// not repeat or interleave, histogram buckets must carry strictly
// increasing parseable `le` bounds with non-decreasing cumulative counts,
// and the `+Inf` bucket must equal `_count`. A scrape that violates any
// of these is rejected by real Prometheus servers, so nonconformance is
// a bug even though our own tests would otherwise never notice.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe      = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// promFamily is one parsed metric family.
type promFamily struct {
	name    string
	typ     string
	samples []promSample
}

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePrometheus strictly parses a text-format exposition, failing the
// test on any structural violation. It returns the families in order.
func parsePrometheus(t *testing.T, text string) []promFamily {
	t.Helper()
	var (
		fams    []promFamily
		seen    = map[string]bool{}
		cur     *promFamily
		hasHelp = map[string]bool{}
	)
	if !strings.HasSuffix(text, "\n") {
		t.Fatalf("exposition must end with a newline")
	}
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		at := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d (%q): %s", ln+1, line, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) || parts[1] == "" {
				at("malformed HELP line")
			}
			if hasHelp[parts[0]] {
				at("duplicate HELP for %s", parts[0])
			}
			hasHelp[parts[0]] = true
			if cur != nil && len(cur.samples) == 0 {
				at("family %s announced but has no samples", cur.name)
			}
			cur = nil // next line must be the TYPE of this same family
			if seen[parts[0]] {
				at("family %s reappears after other families", parts[0])
			}
			fams = append(fams, promFamily{name: parts[0]})
			seen[parts[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				at("malformed TYPE line")
			}
			if len(fams) == 0 || fams[len(fams)-1].name != parts[0] || fams[len(fams)-1].typ != "" {
				at("TYPE %s must directly follow its own HELP", parts[0])
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				at("unknown metric type %q", parts[1])
			}
			cur = &fams[len(fams)-1]
			cur.typ = parts[1]
		case strings.HasPrefix(line, "#"):
			at("stray comment (only HELP/TYPE comments are rendered)")
		default:
			if cur == nil {
				at("sample before any HELP/TYPE header")
			}
			s := parseSample(t, ln+1, line)
			base := s.name
			if cur.typ == "histogram" {
				base = strings.TrimSuffix(base, "_bucket")
				base = strings.TrimSuffix(base, "_sum")
				base = strings.TrimSuffix(base, "_count")
			}
			if base != cur.name {
				at("sample %s does not belong to family %s", s.name, cur.name)
			}
			cur.samples = append(cur.samples, s)
		}
	}
	if cur != nil && len(cur.samples) == 0 {
		t.Fatalf("family %s announced but has no samples", cur.name)
	}
	for i := range fams {
		if fams[i].typ == "" {
			t.Fatalf("family %s has HELP but no TYPE", fams[i].name)
		}
	}
	return fams
}

// parseSample parses `name value` or `name{l="v",...} value`.
func parseSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			t.Fatalf("line %d: unbalanced label braces", ln)
		}
		s.name = line[:i]
		for _, pair := range strings.Split(line[i+1:j], ",") {
			m := labelRe.FindStringSubmatch(pair)
			if m == nil {
				t.Fatalf("line %d: malformed label %q", ln, pair)
			}
			if _, dup := s.labels[m[1]]; dup {
				t.Fatalf("line %d: duplicate label %q", ln, m[1])
			}
			s.labels[m[1]] = m[2]
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("line %d: want `name value`, got %d fields", ln, len(fields))
		}
		s.name, rest = fields[0], fields[1]
	}
	if !metricNameRe.MatchString(s.name) {
		t.Fatalf("line %d: invalid metric name %q", ln, s.name)
	}
	v, err := parsePromFloat(rest)
	if err != nil {
		t.Fatalf("line %d: invalid sample value %q: %v", ln, rest, err)
	}
	s.value = v
	return s
}

// parsePromFloat accepts what Prometheus accepts: Go float syntax plus
// the +Inf/-Inf/NaN spellings.
func parsePromFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// checkHistogram validates one histogram family's bucket discipline.
func checkHistogram(t *testing.T, f promFamily) {
	t.Helper()
	var (
		lastLe  = math.Inf(-1)
		lastCum = int64(-1)
		infCum  = int64(-1)
		count   = int64(-1)
		sawSum  bool
	)
	for _, s := range f.samples {
		switch s.name {
		case f.name + "_bucket":
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("%s: bucket sample without le label", f.name)
			}
			bound, err := parsePromFloat(le)
			if err != nil {
				t.Fatalf("%s: unparseable le=%q: %v", f.name, le, err)
			}
			if bound <= lastLe {
				t.Fatalf("%s: le=%q not strictly increasing (prev %v)", f.name, le, lastLe)
			}
			lastLe = bound
			cum := int64(s.value)
			if float64(cum) != s.value || cum < lastCum {
				t.Fatalf("%s: bucket le=%q count %v not a non-decreasing integer", f.name, le, s.value)
			}
			lastCum = cum
			if math.IsInf(bound, 1) {
				if le != "+Inf" {
					t.Fatalf("%s: +Inf bucket spelled %q", f.name, le)
				}
				infCum = cum
			}
		case f.name + "_sum":
			sawSum = true
		case f.name + "_count":
			count = int64(s.value)
		default:
			t.Fatalf("%s: unexpected histogram sample %s", f.name, s.name)
		}
	}
	if infCum < 0 || !sawSum || count < 0 {
		t.Fatalf("%s: histogram missing +Inf bucket, _sum, or _count", f.name)
	}
	if infCum != count {
		t.Fatalf("%s: +Inf bucket %d != _count %d", f.name, infCum, count)
	}
}

// populatedMetrics builds a registry with every counter and histogram
// non-trivially populated (fractional sums included, to exercise float
// rendering).
func populatedMetrics() *Metrics {
	m := NewMetrics()
	m.IngestedRecords.Add(12)
	m.RejectedRecords.Inc()
	m.CommittedBatches.Add(3)
	m.CommittedRecords.Add(12)
	m.UpdatesCold.Inc()
	m.UpdatesWarm.Add(2)
	m.UpdatesForced.Inc()
	m.UpdateErrors.Inc()
	m.MatcherCalls.Add(700)
	m.MemoHits.Add(41)
	m.MemoMisses.Add(13)
	m.MemoInvals.Add(5)
	m.Reassignments.Add(2)
	m.RetriedSends.Add(7)
	m.LateBatches.Inc()
	m.JournalQuarantined.Inc()
	m.Reads.Add(9)
	m.ReadMiss.Inc()
	m.BadInputs.Inc()
	for _, v := range []float64{0.0004, 0.003, 0.003, 0.017, 0.25, 1.75, 42, 90} {
		m.IngestLag.Observe(v)
		m.UpdateSeconds.Observe(v)
		m.BlockingSeconds.Observe(v / 10)
		m.MatchingSeconds.Observe(v)
		m.RoundSeconds.Observe(v / 3)
		m.ReadSeconds.Observe(v / 100)
		m.ShutdownDrainSec.Observe(v)
	}
	for _, v := range []float64{1, 3, 4, 12, 700, 20000} {
		m.BatchRecords.Observe(v)
		m.BatchCalls.Observe(v)
	}
	return m
}

// TestPrometheusExposition renders the full registry and validates it
// against the strict 0.0.4 parser: header ordering, family uniqueness,
// sample attribution, label syntax, histogram bucket discipline.
func TestPrometheusExposition(t *testing.T) {
	var buf bytes.Buffer
	g := GaugeValues{
		QueueDepth: 3, PendingRecords: 17, OldestPendingAge: 0.512,
		CommittedSeq: 4, CommittedRecs: 12, CommittedMatches: 9, CommittedEnts: 30,
		StoreSavedSeq: 3,
	}
	if err := populatedMetrics().WritePrometheus(&buf, g); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	fams := parsePrometheus(t, buf.String())
	byName := map[string]promFamily{}
	for _, f := range fams {
		byName[f.name] = f
	}

	for _, want := range []string{
		"emserve_ingested_records_total", "emserve_updates_total",
		"emserve_matcher_calls_total", "emserve_memo_hits_total",
		"emserve_memo_misses_total", "emserve_memo_invalidations_total",
		"emserve_reassignments_total", "emserve_retried_sends_total",
		"emserve_late_batches_dropped_total", "emserve_journal_quarantined_total",
		"emserve_queue_depth", "emserve_ingest_lag_commit_seconds",
		"emserve_update_seconds", "emserve_shutdown_drain_seconds",
		"emserve_store_save_errors_total", "emserve_store_saved_seq",
	} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("family %s missing from exposition", want)
		}
	}
	for _, f := range fams {
		if f.typ == "histogram" {
			checkHistogram(t, f)
		}
	}
	if got := byName["emserve_memo_hits_total"].samples[0].value; got != 41 {
		t.Fatalf("emserve_memo_hits_total = %v, want 41", got)
	}
	if got := byName["emserve_store_saved_seq"].samples[0].value; got != 3 {
		t.Fatalf("emserve_store_saved_seq = %v, want 3", got)
	}
	if got := len(byName["emserve_updates_total"].samples); got != 3 {
		t.Fatalf("emserve_updates_total has %d mode samples, want 3", got)
	}
	for _, s := range byName["emserve_updates_total"].samples {
		switch s.labels["mode"] {
		case "cold", "warm", "forced":
		default:
			t.Fatalf("unexpected updates_total mode %q", s.labels["mode"])
		}
	}
}

// TestPrometheusHistogramConsistentUnderLoad scrapes repeatedly while
// writers hammer a histogram: every rendered snapshot must keep the
// cumulative buckets monotone and `_count` equal to the `+Inf` bucket.
// (Deriving `_count` from a separate counter read races concurrent
// observers — the regression this test pins.)
func TestPrometheusHistogramConsistentUnderLoad(t *testing.T) {
	m := NewMetrics()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := []float64{0.0005, 0.004, 0.08, 0.7, 3, 45, 120}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					m.UpdateSeconds.Observe(vals[(i+w)%len(vals)])
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		if err := m.WritePrometheus(&buf, GaugeValues{}); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		for _, f := range parsePrometheus(t, buf.String()) {
			if f.typ == "histogram" {
				checkHistogram(t, f)
			}
		}
	}
	close(stop)
	wg.Wait()
}
