package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// workload is one traffic mix against one deployment.
type workload struct {
	name, why string
	topo      topology
	shape     shape
	// open marks the open-loop fleet workload; the others are closed
	// loops of nproc clients.
	open bool
	// batch makes each closed-loop operation a batch of batchSize
	// recorded jobs followed by reads of every job and its transcript.
	batch bool
	// rssJobs is how many verified jobs of the measured phases the run
	// has done when it reads peak_rss_mb. The deployment keeps every
	// job's record, so memory grows with the jobs run: read at a fixed
	// count, a faster program is not charged for the extra jobs it ran.
	// A run on a slow host still reaches the count early in its window.
	rssJobs int
}

var workloads = []*workload{
	{
		name:    "fleet-open",
		why:     "open loop through the gateway to 2 replicas with small jobs: the edge, admission, queue and verify window dominate",
		topo:    gatewayPair,
		shape:   smallShape,
		open:    true,
		rssJobs: 2000,
	},
	{
		name:    "crypto-closed",
		why:     "closed loop of large jobs (n=16, sigma=17) on one replica: group and commitment work is almost all the time",
		topo:    singleReplica,
		shape:   cryptoShape,
		rssJobs: 150,
	},
	{
		name: "durable-batch",
		why:  "closed loop of recorded 8-job batches plus reads on one fsync=always journal replica: WAL, batch admission and transcripts",
		topo: journalReplica,
		shape: func() shape {
			s := smallShape
			s.Record = true
			return s
		}(),
		batch:   true,
		rssJobs: 2000,
	},
}

// opSize is how many jobs one closed-loop operation sends.
func (w *workload) opSize() int {
	if w.batch {
		return batchSize
	}
	return 1
}

func workloadNamed(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Open-loop rates, in jobs per second, for fleet-open. They are fixed
// so that runs on different commits offer the same load. The low rate
// keeps jobs from overlapping most of the time. The rated rate is about
// half of the capacity a 2-vCPU virtual machine showed in its slow
// spells and a fifth of it in its fast ones; a higher rate made the
// rated step's latency swing with the host's speed. The ladder climbs
// by a quarter a rung from 2.5 times the rated rate to above the fastest
// capacity measured (~750 jobs/s).
const (
	lowRate   = 25
	ratedRate = 120
)

var ladderRates = []float64{300, 375, 470, 590, 740}

// capacityBatch is how many jobs each of fleet-open's capacity clients
// keeps in flight: with nproc clients, enough to keep both replicas'
// workers busy and few enough that no replica's queue of 64 fills.
// Their verified jobs per second are fleet-open's throughput_jobs_s.
const capacityBatch = 32

// setupProbesPerRound is how many cold set-ups a run measures before
// each round of slices; it reports their median as setup_s.
const setupProbesPerRound = 2

// setupProbe is the body of a set-up probe process: boot the
// workload's deployment, send one job of its shape and wait until the
// job is verified. It prints the elapsed seconds.
func setupProbe(wl *workload, seed int64, workDir string) error {
	t0 := time.Now()
	f, err := bootFleet(wl.topo, workDir)
	if err != nil {
		return err
	}
	defer f.Close()
	cl := newClient(f.URL, 1)
	defer cl.close()
	r, spec := newJobGen(wl.shape, seed, "setup").job("", false)
	if err := cl.submit(spec); err != nil {
		return err
	}
	v, err := cl.job(r.id, time.Minute)
	if err != nil {
		return err
	}
	if err := checkOutcome(r.bids, v); err != nil {
		return err
	}
	fmt.Printf("%.9f\n", time.Since(t0).Seconds())
	return nil
}

// probeSetup runs one set-up probe process and returns its seconds. A
// process per probe makes each one pay the cold costs a fresh daemon
// pays (table builds, first connections), which an in-process repeat
// would find memoized.
func probeSetup(wl *workload, seed int64, workDir string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--setup-probe", "--workload", wl.name,
		"--seed", strconv.FormatInt(seed, 10), "--workdir", workDir)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
	if err != nil {
		return 0, fmt.Errorf("setup probe output %q: %w", b, err)
	}
	return v, nil
}
