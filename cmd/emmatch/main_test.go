package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	cem "repro"
)

// runQuiet drives run with discard-able buffers and returns the error.
func runQuiet(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errBuf strings.Builder
	err := run(args, &out, &errBuf)
	return out.String(), err
}

// TestFlagValidation pins the CLI's argument checks: the combinations
// that cannot mean anything must fail fast with a clear error instead of
// running a half-configured job.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the expected error
	}{
		{"resume without state dir",
			[]string{"-resume"},
			"-resume requires -state-dir"},
		{"backend shards without backend",
			[]string{"-backend-shards", "4"},
			"-backend-shards requires -backend sharded"},
		{"backend shards with pool backend",
			[]string{"-backend", "pool", "-backend-shards", "4"},
			"-backend-shards requires -backend sharded"},
		// The dataset file format and its -in flag are retired; their
		// command lines stay refused.
		{"in and records together",
			[]string{"-in", "a.tsv", "-records", "b.tsv"},
			"flag provided but not defined: -in"},
		{"max neighborhood on a dataset file",
			[]string{"-in", "a.tsv", "-max-neighborhood", "2"},
			"flag provided but not defined: -in"},
		{"records and ingest together",
			[]string{"-records", "b.tsv", "-ingest", "c.tsv"},
			"mutually exclusive"},
		{"ingest with resume",
			[]string{"-ingest", "a.tsv,b.tsv", "-state-dir", "x", "-resume"},
			"cannot be combined with -resume"},
		{"unknown flag",
			[]string{"-no-such-flag"},
			"flag provided but not defined"},
		// -state-dir alone means a disk store; command lines of the retired
		// -store flag stay refused.
		{"disk store without state dir",
			[]string{"-store", "disk"},
			"flag provided but not defined: -store"},
		{"state dir with mem store",
			[]string{"-store", "mem", "-state-dir", "x"},
			"flag provided but not defined: -store"},
		{"mem store",
			[]string{"-store", "mem", "-records", "r.tsv"},
			"flag provided but not defined: -store"},
		{"worker addrs with pool backend",
			[]string{"-backend", "pool", "-worker-addrs", "127.0.0.1:1"},
			"-worker-addrs requires -backend sharded"},
		{"backend shards with worker addrs",
			[]string{"-backend", "sharded", "-backend-shards", "4", "-worker-addrs", "127.0.0.1:1,127.0.0.1:2"},
			"-backend-shards counts in-process workers"},
		// Workers block with the default bounds: a bounded coordinator
		// would run on another cover.
		{"worker addrs with max neighborhood",
			[]string{"-worker-addrs", "127.0.0.1:1", "-max-neighborhood", "2"},
			"-worker-addrs: workers block with the default canopy bounds"},
		{"retired backend name",
			[]string{"-backend", "sharded-net"},
			`unknown backend "sharded-net"`},
		{"missing rules file",
			[]string{"-rules-file", "no-such-file.rules"},
			"reading rules file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := runQuiet(t, tc.args...); err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestWholeSetSchemesRefused: FULL and UB results have no round
// structure, so -state-dir has nothing to save and -ingest nothing to
// continue. The flag checks refuse both before a store directory exists.
func TestWholeSetSchemesRefused(t *testing.T) {
	for _, scheme := range []string{"full", "ub"} {
		for _, tc := range []struct {
			args []string
			want string
		}{
			{[]string{"-records", "r.tsv", "-state-dir"}, "-state-dir and -ingest keep a run's round state; -scheme " + scheme},
			{[]string{"-ingest", "a.tsv,b.tsv", "-state-dir"}, "-state-dir and -ingest keep a run's round state; -scheme " + scheme},
		} {
			dir := t.TempDir()
			args := append(tc.args, dir, "-scheme", scheme)
			if _, err := runQuiet(t, args...); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %v, want an error containing %q", args, err, tc.want)
			}
			if _, err := os.Stat(filepath.Join(dir, "store")); !os.IsNotExist(err) {
				t.Errorf("run(%v) created %s/store", args, dir)
			}
		}
		if _, err := runQuiet(t, "-ingest", "a.tsv", "-scheme", scheme); err == nil || !strings.Contains(err.Error(), "-scheme "+scheme+" has none") {
			t.Errorf("-ingest with -scheme %s = %v, want a refusal", scheme, err)
		}
	}
}

// programs numbers the rules programs the tests of this process register.
var programs atomic.Int32

// programName returns prefix plus a number no earlier call in this process
// returned: the registry is process-global, so every run of a test that
// registers a program names it afresh.
func programName(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, programs.Add(1))
}

// writeRulesFile drops a rules program into a temp file.
func writeRulesFile(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.rules")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRulesFileMatcherConflict: -rules-file selects the program as the
// matcher; an explicitly contradicting -matcher must be rejected, an
// agreeing one accepted.
func TestRulesFileMatcherConflict(t *testing.T) {
	name := programName("cli-conflict")
	path := writeRulesFile(t, "program "+name+"\nmatch level 3\n")
	if _, err := runQuiet(t, "-rules-file", path, "-matcher", "mln"); err == nil {
		t.Fatal("conflicting -matcher accepted")
	} else if !strings.Contains(err.Error(), fmt.Sprintf(`named %q but -matcher asks for "mln"`, name)) {
		t.Fatalf("conflict error = %v", err)
	}
	// A bad program surfaces its position.
	bad := writeRulesFile(t, "program cli-bad\nmatch level\n")
	if _, err := runQuiet(t, "-rules-file", bad); err == nil {
		t.Fatal("malformed rules file accepted")
	} else if !strings.Contains(err.Error(), "2:") {
		t.Fatalf("compile error carries no position: %v", err)
	}
}

// TestRulesFileEndToEnd drives the generated people corpus through the
// binary, programmed only by a rules file.
func TestRulesFileEndToEnd(t *testing.T) {
	path := writeRulesFile(t, "program "+programName("cli-people")+`
fields name, street, phone, zip
level 3 when phone equal
level 2 when name jaro >= 0.85 and zip equal
match level 3
match level 2
`)
	out, err := runQuiet(t, "-kind", "people", "-scale", "0.1", "-rules-file", path, "-scheme", "smp")
	if err != nil {
		t.Fatalf("people run: %v", err)
	}
	if !strings.Contains(out, "dataset people-like") {
		t.Errorf("report lacks the dataset line:\n%s", out)
	}
	if !strings.Contains(out, "P=") {
		t.Errorf("report lacks metrics:\n%s", out)
	}
}

// TestEveryModeRunsOnePipeline: a generated corpus, its records file and a
// one-batch stream of that file are one run. -dump-matches writes
// byte-identical files for all three, and -state-dir saves the state of a
// generated run as it does for the others.
func TestEveryModeRunsOnePipeline(t *testing.T) {
	dir := t.TempDir()
	d, err := cem.GenerateDataset(cem.HEPTH, 0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "hepth.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cem.WriteRecords(f, d.Name, cem.RecordsFromDataset(d)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(dir, "state")
	modes := [][]string{
		{"-kind", "hepth", "-scale", "0.1", "-seed", "42", "-state-dir", state},
		{"-records", path},
		{"-ingest", path},
	}
	var dumps []string
	for i, mode := range modes {
		dump := filepath.Join(dir, fmt.Sprintf("matches-%d.txt", i))
		out, err := runQuiet(t, append(mode, "-scheme", "smp", "-dump-matches", dump)...)
		if err != nil {
			t.Fatalf("run %v: %v", mode, err)
		}
		if !strings.Contains(out, "dataset hepth-like: ") {
			t.Errorf("run %v: report lacks the dataset line:\n%s", mode, out)
		}
		raw, err := os.ReadFile(dump)
		if err != nil {
			t.Fatalf("run %v wrote no -dump-matches file: %v", mode, err)
		}
		dumps = append(dumps, string(raw))
	}
	if !strings.HasPrefix(dumps[0], "# ") || strings.HasPrefix(dumps[0], "# 0 ") {
		t.Fatalf("the generated run dumped no matches:\n%.200s", dumps[0])
	}
	for i := 1; i < len(dumps); i++ {
		if dumps[i] != dumps[0] {
			t.Errorf("run %v dumped other matches than run %v", modes[i], modes[0])
		}
	}
	st, err := cem.OpenStore("disk", cem.WithStoreDir(filepath.Join(state, "store")))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if seq, err := cem.StateSeq(st); err != nil || seq != 1 {
		t.Errorf("-state-dir of a generated run holds the state of seq %d (%v), want 1", seq, err)
	}
}

// writeBatches splits a generated corpus into record TSV batch files.
func writeBatches(t *testing.T, dir string, cuts ...float64) []string {
	t.Helper()
	records, err := cem.GenerateRecords(cem.DBLP, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	lo := 0
	for i, frac := range cuts {
		hi := int(frac * float64(len(records)))
		if i == len(cuts)-1 {
			hi = len(records)
		}
		path := filepath.Join(dir, "batch"+string(rune('1'+i))+".tsv")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := cem.WriteRecords(f, "dblp-stream", records[lo:hi]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		paths = append(paths, path)
		lo = hi
	}
	return paths
}

// TestIngestShardsAgree: -shards reaches the blocking index an -ingest
// stream carries from batch to batch, and the reports do not depend on it:
// one and four shards print the same batches but for their timings.
func TestIngestShardsAgree(t *testing.T) {
	paths := strings.Join(writeBatches(t, t.TempDir(), 0.3, 1.0), ",")
	timings := regexp.MustCompile(`\(blocking [^,]*, matching [^)]*\)`)
	var outs []string
	for _, shards := range []string{"1", "4"} {
		out, err := runQuiet(t, "-ingest", paths, "-scheme", "smp", "-shards", shards)
		if err != nil {
			t.Fatalf("-shards %s: %v", shards, err)
		}
		outs = append(outs, timings.ReplaceAllString(out, "(timings)"))
	}
	if outs[0] != outs[1] {
		t.Fatalf("-ingest reports differ between -shards 1 and -shards 4:\n%s\nvs\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "batch 2/2") {
		t.Fatalf("-ingest report lacks its second batch:\n%s", outs[0])
	}
}

// TestIngestReplaysStream runs the -ingest mode end to end on a real
// (small) corpus split into three batches and checks the per-batch
// reports, the final match count against a cold pipeline run, and the
// state -state-dir saved.
func TestIngestReplaysStream(t *testing.T) {
	paths := writeBatches(t, t.TempDir(), 0.6, 0.8, 1.0)
	state := t.TempDir()
	out, err := runQuiet(t, "-ingest", strings.Join(paths, ","), "-scheme", "smp", "-v", "-state-dir", state)
	if err != nil {
		t.Fatalf("ingest run: %v", err)
	}
	st, err := cem.OpenStore("disk", cem.WithStoreDir(filepath.Join(state, "store")))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if seq, err := cem.StateSeq(st); err != nil || seq != 3 {
		t.Errorf("-state-dir holds the state of seq %d (%v), want 3", seq, err)
	}
	for _, want := range []string{"batch 1/3", "batch 2/3", "batch 3/3", "[cold]"} {
		if !strings.Contains(out, want) {
			t.Errorf("ingest output lacks %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "[warm]") && !strings.Contains(out, "full re-run") {
		t.Errorf("ingest output reports no incremental batches:\n%s", out)
	}
	if !strings.Contains(out, "cumulative: 3 updates (1 cold,") {
		t.Errorf("-v output lacks the cumulative counters:\n%s", out)
	}
	records, err := cem.GenerateRecords(cem.DBLP, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}

	// The cumulative line is the sum of the per-batch reports: its
	// matcher calls add up the batches' stats lines, its record count is
	// the stream length, and the verdict memo's hits add up theirs.
	sum := func(re string) (total int) {
		for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(out, -1) {
			n, _ := strconv.Atoi(m[1])
			total += n
		}
		return total
	}
	calls, hits := sum(`(?m)^stats: .* calls=(\d+) `), sum(`(?m)^stats: .* cacheHits=(\d+) `)
	var updates, colds, warm, forced, cumCalls, cumRecords int
	if _, err := fmt.Sscanf(out[strings.Index(out, "cumulative: "):],
		"cumulative: %d updates (%d cold, %d warm, %d forced), %d matcher calls over %d records",
		&updates, &colds, &warm, &forced, &cumCalls, &cumRecords); err != nil {
		t.Fatalf("parsing the cumulative line: %v\n%s", err, out)
	}
	if cumCalls != calls || calls == 0 {
		t.Errorf("cumulative line counts %d matcher calls, the batches' stats lines %d", cumCalls, calls)
	}
	if cumRecords != len(records) {
		t.Errorf("cumulative line counts %d records, the stream holds %d", cumRecords, len(records))
	}
	if warm != strings.Count(out, "[warm]") || forced != strings.Count(out, "full re-run") {
		t.Errorf("cumulative line counts %d warm and %d forced batches:\n%s", warm, forced, out)
	}
	if hits > 0 && !strings.Contains(out, "verdict memo: "+itoa(hits)+" hits / ") {
		t.Errorf("verdict memo line does not carry the batches' %d hits:\n%s", hits, out)
	}

	// The stream must land on the cold pipeline's match count.
	pipe, err := cem.NewPipeline(cem.WithScheme(cem.SchemeSMP), cem.WithDatasetName("dblp-stream"))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := pipe.Run(context.Background(), records)
	if err != nil {
		t.Fatal(err)
	}
	wantLine := "records, " + itoa(cold.Matches.Len()) + " matches"
	lines := strings.Split(out, "\n")
	final := ""
	for _, l := range lines {
		if strings.HasPrefix(l, "batch 3/3") {
			final = l
		}
	}
	if !strings.Contains(final, wantLine) {
		t.Errorf("final batch line %q does not carry the cold match count (%d)", final, cold.Matches.Len())
	}
}

// TestIngestRejectsMissingFile: a bad batch path fails cleanly.
func TestIngestRejectsMissingFile(t *testing.T) {
	if _, err := runQuiet(t, "-ingest", "no-such-file.tsv"); err == nil {
		t.Fatal("ingest of a missing file succeeded")
	}
	if _, err := runQuiet(t, "-ingest", " , "); err == nil {
		t.Fatal("ingest of empty paths succeeded")
	}
}

// itoa avoids importing strconv for one call site.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestResumeOverTruncatedTail: a state blob cut short (only damage from
// outside can do that: every save is durable) must not wedge -resume: it
// is set aside as latest.corrupt and the run starts fresh, reporting what
// the uninterrupted run reported.
func TestResumeOverTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-kind", "hepth", "-scale", "0.1", "-scheme", "smp", "-state-dir", dir}
	want, err := runQuiet(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	blob := filepath.Join(dir, "store", "blob", "snapshot", "latest")
	raw, err := os.ReadFile(blob)
	if err != nil {
		t.Fatalf("the run left no state blob: %v", err)
	}
	if err := os.WriteFile(blob, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := runQuiet(t, append(args, "-resume")...)
	if err != nil {
		t.Fatalf("-resume over a truncated state: %v", err)
	}
	if got != want {
		t.Errorf("resumed report differs from the uninterrupted run:\n%s\nwant:\n%s", got, want)
	}
	if aside, err := os.ReadFile(blob + ".corrupt"); err != nil || !bytes.Equal(aside, raw[:len(raw)/2]) {
		t.Errorf("the torn state was not set aside: %v", err)
	}
}

// TestBCubedLine pins the -bcubed report line: B-cubed is an average over
// entities, so the line carries precision, recall and F1 and no pair
// counts (eval.BCubed sets none; printed, they read zero).
func TestBCubedLine(t *testing.T) {
	out, err := runQuiet(t, "-kind", "hepth", "-scale", "0.1", "-scheme", "smp", "-bcubed")
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`(?m)^B³: .*$`).FindString(out)
	if !regexp.MustCompile(`^B³:    P=[01]\.\d{3} R=[01]\.\d{3} F1=[01]\.\d{3}$`).MatchString(line) {
		t.Fatalf("-bcubed printed %q, want \"B³:    P=… R=… F1=…\"; report:\n%s", line, out)
	}
}
