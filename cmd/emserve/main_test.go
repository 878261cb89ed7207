package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	cem "repro"
)

// startServer runs the binary's entry point on an ephemeral port and
// returns its base URL plus channels to signal and join it.
func startServer(t *testing.T, state string) (base string, sigs chan os.Signal, errc chan error, out *bytes.Buffer) {
	t.Helper()
	sigs = make(chan os.Signal, 1)
	ready := make(chan string, 1)
	errc = make(chan error, 1)
	out = &bytes.Buffer{}
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-state-dir", state, "-max-delay", "5ms"},
			out, io.Discard, sigs, ready)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, sigs, errc, out
	case err := <-errc:
		t.Fatalf("server did not start: %v", err)
		return "", nil, nil, nil
	}
}

// TestEmserveSIGTERMRestart is the binary-level lifecycle test: serve,
// ingest, SIGTERM (graceful drain), restart on the same state dir, and
// observe the identical committed state, reopened from the store.
func TestEmserveSIGTERMRestart(t *testing.T) {
	records, err := cem.GenerateRecords(cem.HEPTH, 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	state := t.TempDir()
	base, sigs, errc, out := startServer(t, state)

	var body bytes.Buffer
	if err := cem.WriteRecords(&body, "load", records); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/records?wait=1", "text/tab-separated-values", &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /records: status %d", resp.StatusCode)
	}
	want := fetchStats(t, base)
	if want.Records != len(records) || want.Seq != 1 {
		t.Fatalf("server stats %+v, want seq 1 over %d records", want, len(records))
	}

	sigs <- syscall.SIGTERM
	if err := <-errc; err != nil {
		t.Fatalf("SIGTERM shutdown: %v", err)
	}
	if !strings.Contains(out.String(), "drained at seq 1") {
		t.Errorf("shutdown report missing drain line: %q", out.String())
	}
	if _, err := os.Stat(filepath.Join(state, "store", "blob", "snapshot", "latest")); err != nil {
		t.Errorf("clean shutdown left no store snapshot: %v", err)
	}
	if m, _ := filepath.Glob(filepath.Join(state, "journal", "batch-*.tsv")); len(m) == 0 {
		t.Error("clean shutdown left no journal")
	}

	base2, sigs2, errc2, _ := startServer(t, state)
	got := fetchStats(t, base2)
	if got.Seq != want.Seq || got.Records != want.Records || got.MatchPairs != want.MatchPairs {
		t.Errorf("restarted stats %+v, want %+v", got, want)
	}
	sigs2 <- syscall.SIGTERM
	if err := <-errc2; err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

type srvStats struct {
	Seq        int `json:"seq"`
	Records    int `json:"records"`
	MatchPairs int `json:"match_pairs"`
}

func fetchStats(t *testing.T, base string) srvStats {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st srvStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEmserveBadFlags: flag validation errors surface instead of
// hanging the server.
func TestEmserveBadFlags(t *testing.T) {
	if err := run([]string{"-scheme", "full"}, io.Discard, io.Discard, nil, nil); err == nil {
		t.Error("a scheme without an incremental path was accepted")
	}
	if err := run([]string{"-addr", "256.0.0.1:bad"}, io.Discard, io.Discard, nil, nil); err == nil {
		t.Error("an unparseable listen address was accepted")
	}
	if err := run([]string{"-matcher", "nope"}, io.Discard, io.Discard, nil, nil); err == nil {
		t.Error("an unknown matcher was accepted (the server would never commit a batch)")
	}
}

// TestEmserveStoreFlagValidation: a state directory always holds a disk
// store, so the storage backend is not a flag; command lines of the
// retired -store flag fail before the server starts.
func TestEmserveStoreFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"disk store without state dir", []string{"-store", "disk"}},
		{"mem store never persists", []string{"-store", "mem", "-state-dir", t.TempDir()}},
		{"mem store without state dir", []string{"-store", "mem"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard, io.Discard, nil, nil)
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -store") {
				t.Fatalf("run(%v) = %v, want the undefined-flag error", tc.args, err)
			}
		})
	}
}

// TestEmserveRulesFile: -rules-file programs the service's matcher; a
// contradicting -matcher is rejected.
func TestEmserveRulesFile(t *testing.T) {
	// The registry is process-global: each run names its programs afresh.
	run1 := rulesRuns.Add(1)
	path := filepath.Join(t.TempDir(), "prog.rules")
	if err := os.WriteFile(path, []byte(fmt.Sprintf("program srv-prog-%d\nmatch level 3\n", run1)), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-rules-file", path, "-matcher", "mln"}, io.Discard, io.Discard, nil, nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf(`program is named "srv-prog-%d" but -matcher asks for "mln"`, run1)) {
		t.Fatalf("conflicting -matcher not rejected: %v", err)
	}
	// With no -matcher the program is selected; a bad listen address
	// then fails past matcher resolution, proving the program loaded.
	// (This run needs a program name of its own too.)
	path2 := filepath.Join(t.TempDir(), "prog2.rules")
	if err := os.WriteFile(path2, []byte(fmt.Sprintf("program srv-prog2-%d\nmatch level 3\n", run1)), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-rules-file", path2, "-addr", "256.0.0.1:bad"}, io.Discard, io.Discard, nil, nil)
	if err == nil || strings.Contains(err.Error(), "rules") {
		t.Fatalf("rules-file service did not reach the listen stage: %v", err)
	}
}

// rulesRuns numbers the runs of TestEmserveRulesFile in this process.
var rulesRuns atomic.Int32

// TestEmserveRejectsUnknownFlag keeps the flag surface honest.
func TestEmserveRejectsUnknownFlag(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-no-such-flag"}, io.Discard, &stderr, nil, nil); err == nil {
		t.Error("unknown flag accepted")
	}
	if !strings.Contains(stderr.String(), "Usage") && !strings.Contains(stderr.String(), "flag") {
		t.Errorf("no usage on bad flag: %q", stderr.String())
	}
}
