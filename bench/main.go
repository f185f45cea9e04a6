// Command bench is the repository's benchmark: four named workloads run a
// whole adaptive job through controller.New(...).Run, and one command prints
// every end-to-end metric (tracing off) or every per-layer metric (tracing
// on, spans recorded from this package's own decorators and probes), checks
// the outputs against a single-node reference run, and writes a results file.
// See README.md for the metric dictionary and how the metrics interact.
//
//	bash bench/run.sh --workload steady-rj1 --seed 1 --seconds 25 --trace 0
//	go run -C bench . -runs 10 -out out/a.json        # a set: every workload, ten seeds
//	go run -C bench . -runs 1 -trace 1                # a traced set
//	go run -C bench . -compare out/a.json out/b.json  # apply BENCHMARK.json's bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// setupRepeats is how many times a run sets its job up; setup_s is the median.
const setupRepeats = 5

// benchmarkPath is where -compare finds the bounds: both ways of running the
// binary (run.sh, go run -C bench) run it in bench/.
const benchmarkPath = "../BENCHMARK.json"

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the driver's result line (empty: run a set)")
		seed         = flag.Int64("seed", 1, "workload seed: JobConfig.Seed and the balancer seed")
		seconds      = flag.Float64("seconds", 25, "measure whole cycles of periods until this many seconds have passed")
		trace        = flag.Int("trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
		scale        = flag.Float64("scale", 0, "> 0: measure a fixed period count instead, the workload's own count times this factor")
		quick        = flag.Bool("quick", false, "measure 40 periods and set up once (smoke test)")
		runs         = flag.Int("runs", 10, "set mode: runs per workload, each with the next seed")
		out          = flag.String("out", "", "set mode: write the results JSON here")
		compare      = flag.Bool("compare", false, "compare two results files given as arguments against BENCHMARK.json's bounds")
		worker       = flag.String("worker", "", "internal: run as a worker process joining this controller address")
	)
	flag.Parse()

	if *worker != "" {
		if err := runWorker(*worker); err != nil {
			fmt.Fprintf(os.Stderr, "bench worker %d: %v\n", os.Getpid(), err)
			os.Exit(1)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results files"))
		}
		ok, err := compareFiles(os.Stdout, benchmarkPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// A signal cancels the context; every run path then unwinds through its
	// error returns, which kill and reap the worker processes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := runConfig{seconds: *seconds, scale: *scale, quick: *quick, trace: *trace != 0, outDir: "out"}
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		o, err := runOnce(ctx, w, *seed, cfg)
		if err != nil {
			fatal(err)
		}
		o.print(os.Stdout)
		line, err := json.Marshal(o.driverLine())
		if err != nil {
			fatal(err)
		}
		// A printed result exits 0 even when checks failed: the line's
		// "correct" and "failed" say so. An interrupted run does not count.
		fmt.Println(string(line))
		if ctx.Err() != nil {
			os.Exit(130)
		}
		return
	}
	ok, err := runSet(ctx, os.Stdout, cfg, *seed, *runs, *out)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}
