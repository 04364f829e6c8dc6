// Command benchmark is the one benchmark of the PIER stack: a closed-
// loop load generator over pierd's TCP wire against an in-process
// simnet cluster, all in this one process. It runs one workload per
// invocation, checks every answer against the generator's own copy of
// the data, and prints one JSON result as the last line of standard
// output: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// runCap bounds one invocation. The driver allows 180 s; a hang must
// end in an exit, not in a process left running.
const runCap = 170 * time.Second

// maxFailedFrac is where latency stops meaning anything: a run with a
// larger share of failed ops exits non-zero.
const maxFailedFrac = 0.05

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: serve_light, serve_saturated, join_resident or join_spill")
		seed    = flag.Int64("seed", 1, "seed for data values, statement order and literals")
		seconds = flag.Float64("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the window counters and a traced pass")
		out     = flag.String("out", "", "also append the run as one JSON line (workload, seed, trace, result) to this file")
		compare = flag.Bool("compare", false, "compare two files written with -out: benchmark -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare a.jsonl b.jsonl")
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(2, "%v", err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(2, "--seconds must be positive and --trace 0 or 1")
	}

	// Exactly one process, and it always ends: the watchdog and the
	// signal handler run the same teardown the normal path does.
	watchdog := time.AfterFunc(runCap, func() {
		fmt.Fprintf(os.Stderr, "benchmark: still running after %v, giving up\n", runCap)
		abort(3)
	})
	defer watchdog.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "benchmark: %v, tearing down\n", s)
		abort(130)
	}()

	run, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, defaultSizes(w))
	if err != nil {
		fatal(1, "%s: %v", w.name, err)
	}
	for _, line := range append(run.info, run.problems...) {
		fmt.Println(line)
	}
	if run.spanFile != "" {
		fmt.Println("spans written to", run.spanFile)
	}
	for _, n := range sortedNames(run.res.Metrics) {
		m := run.res.Metrics[n]
		fmt.Printf("%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(run.res)
	if err != nil {
		fatal(1, "%v", err)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Trace: *trace, Result: run.res, Problems: run.problems}); err != nil {
			fatal(1, "%v", err)
		}
	}
	failedFrac := ratio(float64(run.res.Failed), float64(run.res.Attempted))
	if run.res.Attempted == 0 || failedFrac > maxFailedFrac {
		fatal(1, "%s: %d of %d ops failed, more than %.0f%%", w.name, run.res.Failed, run.res.Attempted, 100*maxFailedFrac)
	}
	fmt.Println(string(line))
}

// abort ends the process from the watchdog or the signal handler. The
// teardown is given a few seconds; the exit is unconditional.
func abort(code int) {
	done := make(chan struct{})
	go func() {
		closeLiveEnv()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
	os.Exit(code)
}

func fatal(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}
