// Command perfbench is the repository's benchmark. One run boots a
// deployment in-process — real internal/server replicas and, for the
// fleet workload, a real internal/gateway, all over loopback HTTP —
// drives one named workload at a given seed for a given number of
// seconds, checks every job's outcome against MinWork, and prints its
// metrics, the last line being one JSON object:
//
//	bash perfbench/run.sh --workload fleet-open --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// makes an untraced and a traced pass and prints the per-layer
// metrics. BENCHMARK.json at the repository root declares both sets;
// README.md in this directory describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fleet-open | crypto-closed | durable-batch")
		seed    = flag.Int64("seed", 1, "seed every input is drawn from")
		seconds = flag.Int("seconds", 30, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
		workDir = flag.String("workdir", ".bench_build", "scratch directory for journal data")
		probe   = flag.Bool("setup-probe", false, "internal: measure one cold set-up and print its seconds")
	)
	flag.Parse()
	wl, err := workloadNamed(*name)
	if err != nil {
		fatal(err)
	}
	if *probe {
		if err := setupProbe(wl, *seed, *workDir); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	printRecord(wl, *seed, *seconds, *trace)
	res, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workDir)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.text)
	for _, e := range res.errors {
		fmt.Println("FAILED:", e)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.errors) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics.jsonMetrics(),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if len(res.errors) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// heldOutSeed is kept out of every run made while tuning the benchmark
// or a change: a gain claim must also hold at this seed.
const heldOutSeed = 9001

// printRecord names everything a reader needs to reproduce the run.
func printRecord(wl *workload, seed int64, seconds, trace int) {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += " (modified)"
			}
		}
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d held_out_seed=%d\n",
		wl.name, seed, seconds, trace, heldOutSeed)
	fmt.Printf("  nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("  deployment: %s; jobs: %s\n", wl.topo, wl.shape)
	if wl.open {
		fmt.Printf("  open loop: low %d jobs/s, rated %d jobs/s, ladder %v jobs/s; %d%% batches of %d over %d tenants; SLO p99<%v\n",
			lowRate, ratedRate, ladderRates, 100/batchEvery, batchSize, tenants, sloLatency)
		fmt.Printf("  capacity: closed loop of %d clients, batches of %d\n", runtime.NumCPU(), capacityBatch)
	} else {
		fmt.Printf("  closed loop: %d clients (low phase: 1 client)\n", runtime.NumCPU())
	}
}
