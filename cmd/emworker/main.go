// Command emworker runs one worker process of the sharded backend: it
// grounds the same experiment a coordinator runs (dataset, matcher,
// cover — the model is never serialized) and serves partition
// assignments over a TCP or unix socket until signaled. A coordinator
// attaches via emmatch -worker-addrs (or cem.NewShardedNetBackend with
// addresses), and the handshake fingerprint — scheme, cover sizes and
// the -matcher name against the run's matcher — refuses coordinators
// grounded on a different corpus or model. SIGKILLing an emworker mid-run
// makes the coordinator reassign its partitions — the run finishes on
// the surviving workers with identical output.
//
// Usage:
//
//	emworker -listen 127.0.0.1:7401 -kind hepth -scheme smp -matcher mln
//	emworker -listen unix:/tmp/w0.sock -in hepth.tsv -scheme mmp
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	cem "repro"
	"repro/internal/bib"
	"repro/internal/core"
	emnet "repro/internal/net"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil, nil); err != nil {
		fmt.Fprintf(os.Stderr, "emworker: %v\n", err)
		os.Exit(1)
	}
}

// coreScheme maps the CLI scheme flag to the engine's canonical
// round-based scheme name ("" = not round-based, which a worker cannot
// serve: FULL and UB have no rounds to distribute).
func coreScheme(s string) string {
	switch strings.ToLower(s) {
	case "nomp", "no-mp":
		return "NO-MP"
	case "smp":
		return "SMP"
	case "mmp":
		return "MMP"
	}
	return ""
}

// run is the testable entry point. sigs overrides the OS signal channel
// (nil installs SIGINT/SIGTERM); ready, when non-nil, receives the
// bound listen address once the worker accepts connections.
func run(args []string, stdout, stderr io.Writer, sigs chan os.Signal, ready chan<- string) error {
	fs := flag.NewFlagSet("emworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen  = fs.String("listen", "127.0.0.1:0", "listen address: host:port or unix:/path.sock")
		in      = fs.String("in", "", "dataset TSV file (from emgen); empty to generate")
		kind    = fs.String("kind", "hepth", "generated corpus kind: hepth | dblp | dblp-big | million")
		scale   = fs.Float64("scale", 0.5, "generated corpus scale")
		seed    = fs.Int64("seed", 42, "generation seed")
		scheme  = fs.String("scheme", "smp", "scheme this worker serves: nomp | smp | mmp")
		matcher = fs.String("matcher", "mln", "matcher: "+strings.Join(cem.Matchers(), " | "))
		format  = fs.String("format", "binary", "wire codec for outgoing batches: binary | json")
		verbose = fs.Bool("v", false, "log worker lifecycle events to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cs := coreScheme(*scheme)
	if cs == "" {
		return fmt.Errorf("scheme %q is not round-based; a worker serves nomp, smp or mmp", *scheme)
	}
	var wf wire.Format
	switch *format {
	case "binary":
		wf = wire.Binary
	case "json":
		wf = wire.JSON
	default:
		return fmt.Errorf("unknown -format %q (binary | json)", *format)
	}

	var (
		d   *bib.Dataset
		err error
	)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		d, err = bib.Read(f)
		f.Close()
		if err != nil {
			return err
		}
	} else if d, err = cem.GenerateDataset(cem.DatasetKind(*kind), *scale, *seed); err != nil {
		return err
	}
	exp, err := cem.New(d)
	if err != nil {
		return err
	}
	runner, err := exp.Runner(*matcher)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Cover:    exp.Cover,
		Matcher:  runner.Matcher(),
		Relation: exp.Dataset.Coauthor(),
	}

	network, addr := "tcp", *listen
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		network, addr = "unix", rest
	}
	l, err := net.Listen(network, addr)
	if err != nil {
		return err
	}
	bound := l.Addr().String()
	if network == "unix" {
		bound = "unix:" + bound
	}
	fmt.Fprintf(stdout, "emworker: %s %s on %s (%d neighborhoods over %d entities)\n",
		cs, *matcher, bound, exp.Cover.Len(), exp.Cover.NumEntities)
	if ready != nil {
		ready <- bound
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if sigs == nil {
		sigs = make(chan os.Signal, 1)
		signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(sigs)
	}
	go func() {
		if sig, ok := <-sigs; ok {
			fmt.Fprintf(stderr, "emworker: %v: shutting down\n", sig)
			cancel()
		}
	}()

	opts := emnet.WorkerOptions{Format: wf, Matcher: *matcher}
	if *verbose {
		opts.Logf = func(f string, a ...any) { fmt.Fprintf(stderr, "emworker: "+f+"\n", a...) }
	}
	if err := emnet.Serve(ctx, l, cfg, cs, opts); err != nil && err != context.Canceled {
		return err
	}
	return nil
}
