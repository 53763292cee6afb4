package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dmw/internal/server"
)

// shape is the size of the jobs a workload sends.
type shape struct {
	Agents, Tasks int
	W             []int
	C             int
	Record        bool
}

func (s shape) String() string {
	return fmt.Sprintf("n=%d m=%d W=%v c=%d record=%v", s.Agents, s.Tasks, s.W, s.C, s.Record)
}

var (
	// smallShape is the ServerThroughput job: ~2 ms of group work.
	smallShape = shape{Agents: 5, Tasks: 2, W: []int{1, 2, 3}}
	// cryptoShape is the crypto-bound job (sigma = 17): ~80 ms of group
	// and commitment work.
	cryptoShape = shape{Agents: 16, Tasks: 2, W: []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, C: 1}
)

// jobGen draws jobs of one shape from a seeded source. Every job gets a
// fresh ID, bids drawn uniformly from W, and a protocol seed.
type jobGen struct {
	shape  shape
	rng    *rand.Rand
	prefix string
	next   int
}

func newJobGen(sh shape, seed int64, prefix string) *jobGen {
	return &jobGen{shape: sh, rng: rand.New(rand.NewSource(seed)), prefix: prefix}
}

// job draws the next job and its spec.
func (g *jobGen) job(tenantID string, trace bool) (*jobRec, server.JobSpec) {
	g.next++
	id := fmt.Sprintf("%s-%d", g.prefix, g.next)
	bids := make([][]int, g.shape.Agents)
	for i := range bids {
		bids[i] = make([]int, g.shape.Tasks)
		for j := range bids[i] {
			bids[i][j] = g.shape.W[g.rng.Intn(len(g.shape.W))]
		}
	}
	spec := server.JobSpec{
		ID:     id,
		Bids:   bids,
		W:      g.shape.W,
		C:      g.shape.C,
		Seed:   g.rng.Int63(),
		Record: g.shape.Record,
		Trace:  trace,
		Tenant: tenantID,
	}
	return &jobRec{id: id, bids: bids}, spec
}

// arrival is one open-loop submission: a single job or a batch.
type arrival struct {
	at    time.Duration // offset from the step start
	jobs  []*jobRec
	specs []server.JobSpec
	batch bool
}

// Open-loop traffic mix: a tenth of the submissions are batches of 8,
// spread over 3 tenants.
const (
	batchEvery = 10
	batchSize  = 8
	tenants    = 3
)

// jobsPerArrival is the mean number of jobs one open-loop arrival
// carries under the mix above.
const jobsPerArrival = (float64(batchEvery-1) + batchSize) / batchEvery

// planOpen draws an open-loop step of the given job rate and length:
// arrivals at uniformly random instants (a Poisson process conditioned
// on its count, so every seed offers exactly the same number of jobs),
// one in batchEvery of them a batch, each tagged with a random tenant.
func planOpen(g *jobGen, rng *rand.Rand, rate float64, d time.Duration, trace bool) []arrival {
	n := int(rate*d.Seconds()/jobsPerArrival + 0.5)
	if n < 1 {
		n = 1
	}
	times := make([]time.Duration, n)
	for i := range times {
		times[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	batches := rng.Perm(n)[:n/batchEvery]
	isBatch := make(map[int]bool, len(batches))
	for _, i := range batches {
		isBatch[i] = true
	}
	out := make([]arrival, n)
	for i := range out {
		a := arrival{at: times[i], batch: isBatch[i]}
		size := 1
		if a.batch {
			size = batchSize
		}
		tid := fmt.Sprintf("tenant-%d", rng.Intn(tenants))
		for k := 0; k < size; k++ {
			r, spec := g.job(tid, trace)
			a.jobs = append(a.jobs, r)
			a.specs = append(a.specs, spec)
		}
		out[i] = a
	}
	return out
}
