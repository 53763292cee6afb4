package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmw/internal/audit"
	"dmw/internal/server"
)

// slo is the repository's default latency objective, p99 < 250 ms: a
// job that takes longer, fails or is refused misses it.
const (
	sloLatency  = 250 * time.Millisecond
	sloMissFrac = 0.01
)

// phase is one measured stretch of a run: the jobs it sent and what
// the deployment's counters and the process's memory did meanwhile.
type phase struct {
	name    string
	jobs    []*jobRec
	elapsed time.Duration
	// busy is, for open-loop steps, the time from the first due instant
	// to the last terminal observation, summed over the slices.
	busy time.Duration

	lags      []float64 // open-loop send lag per arrival, ms
	acks      []float64 // single-submit POST spans, ms
	batchAcks []float64 // batch POST spans, ms
	reads     []float64 // job and transcript GET spans, ms
	refused   int       // submissions answered 429/503 or not at all

	backlog []float64 // outstanding jobs sampled every backlogTick
	aborted bool      // ladder rung stopped early: SLO already missed
	misses  int       // jobs late past sloLatency, failed or refused
	grew    bool      // the backlog of some slice grew
	// sliceP50s is the median latency of each slice absorbed.
	sliceP50s []float64

	// deltas are the changes of the /metrics series over the phase;
	// allocBytes and gcCycles those of the process's runtime.MemStats.
	deltas     map[string]float64
	allocBytes uint64
	gcCycles   uint32

	// Scratch for begin/end.
	before map[string]float64
	mem0   runtime.MemStats
}

const backlogTick = 100 * time.Millisecond

// latencies returns the client latency of every job that verified.
func (p *phase) latencies() []float64 {
	var out []float64
	for _, r := range p.jobs {
		if !r.failed() {
			out = append(out, r.latencyMS())
		}
	}
	return out
}

func (p *phase) verified() int {
	n := 0
	for _, r := range p.jobs {
		if !r.failed() {
			n++
		}
	}
	return n
}

func (p *phase) failures() int { return len(p.jobs) - p.verified() }

// delta is the change of a /metrics series over the phase.
func (p *phase) delta(series string) float64 { return p.deltas[series] }

// absorb appends slice q, measured later, to p: one phase may be
// measured in several slices spread over the run, so that every phase
// samples the host's conditions over the whole window.
func (p *phase) absorb(q *phase) {
	p.jobs = append(p.jobs, q.jobs...)
	p.elapsed += q.elapsed
	p.busy += q.busy
	p.lags = append(p.lags, q.lags...)
	p.acks = append(p.acks, q.acks...)
	p.batchAcks = append(p.batchAcks, q.batchAcks...)
	p.reads = append(p.reads, q.reads...)
	p.refused += q.refused
	p.misses += q.misses
	p.aborted = p.aborted || q.aborted
	p.grew = p.grew || q.grew
	p.sliceP50s = append(p.sliceP50s, median(q.latencies()))
	if p.deltas == nil {
		p.deltas = make(map[string]float64, len(q.deltas))
	}
	for k, v := range q.deltas {
		p.deltas[k] += v
	}
	p.allocBytes += q.allocBytes
	p.gcCycles += q.gcCycles
}

// bench is one run of one workload against one booted deployment.
type bench struct {
	wl    *workload
	seed  int64
	nproc int
	cl    *client
	tr    *tracker
	rng   *rand.Rand
	// phases counts closed-loop phases, keeping their job IDs distinct.
	phases int
	// slices holds one summary line per measured slice.
	slices []string

	// workDir holds the set-up probes' journal directories.
	workDir string

	// countVerified is set while the untraced measured phases run:
	// their verified jobs count towards the workload's rssJobs, and the
	// peak resident set is read, into rssMB, once they reach it.
	countVerified bool
	verified      atomic.Int64
	rssOnce       sync.Once
	rssMB         float64

	// transcripts kept for the post-window audit (durable-batch).
	auditMu   sync.Mutex
	auditKeep [][]byte
}

const auditCap = 128

func (b *bench) begin(p *phase) error {
	var err error
	if p.before, err = b.cl.scrape(); err != nil {
		return err
	}
	runtime.ReadMemStats(&p.mem0)
	return nil
}

func (b *bench) end(p *phase) error {
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	p.allocBytes = mem1.TotalAlloc - p.mem0.TotalAlloc
	p.gcCycles = mem1.NumGC - p.mem0.NumGC
	after, err := b.cl.scrape()
	if err != nil {
		return err
	}
	p.deltas = make(map[string]float64, len(after))
	for k, v := range after {
		p.deltas[k] = v - p.before[k]
	}
	return nil
}

// openStep runs one open-loop step: the plan's arrivals are sent at
// their due instants by nproc senders, whatever the deployment's state,
// and every job is timed from its due instant to the terminal event on
// the stream. A ladder step stops sending once more than sloMissFrac of
// its jobs have missed the SLO.
func (b *bench) openStep(name string, g *jobGen, rate float64, d time.Duration, trace, ladder bool) (*phase, error) {
	plan := planOpen(g, b.rng, rate, d, trace)
	p := &phase{name: name}
	for _, a := range plan {
		p.jobs = append(p.jobs, a.jobs...)
		for _, r := range a.jobs {
			b.tr.add(r)
		}
	}
	if err := b.begin(p); err != nil {
		return nil, err
	}
	var stop atomic.Bool
	queue := make(chan *arrival, len(plan)) // holds the whole plan: arrivals never wait on senders
	start := time.Now().Add(10 * time.Millisecond)
	for i := range plan {
		for _, r := range plan[i].jobs {
			r.due = start.Add(plan[i].at)
		}
	}
	var wg sync.WaitGroup
	var lagMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for i := range plan {
			time.Sleep(time.Until(start.Add(plan[i].at)))
			if stop.Load() {
				return
			}
			queue <- &plan[i]
		}
	}()
	for s := 0; s < b.nproc; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				due := a.jobs[0].due
				lag := ms(time.Since(due))
				b.send(a, p, &lagMu)
				lagMu.Lock()
				p.lags = append(p.lags, lag)
				lagMu.Unlock()
			}
		}()
	}
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		b.sample(p, plan, start, d, ladder, &stop)
	}()
	wg.Wait()
	<-sampled
	if stop.Load() {
		// A stopped rung never sent the rest of its plan.
		sent := p.jobs[:0]
		for _, r := range p.jobs {
			if !r.sent.IsZero() {
				sent = append(sent, r)
			}
		}
		p.jobs = sent
	}
	left := b.tr.waitTerminal(p.jobs, time.Now().Add(10*time.Second))
	p.elapsed = d
	p.grew = backlogGrows(p.backlog, max(20, 0.1*rate*d.Seconds()))
	if err := b.end(p); err != nil {
		return nil, err
	}
	if left > 0 {
		b.fallback(p)
	}
	b.collect(p, trace)
	p.busy = busySpan(p)
	b.noteVerified(p.jobs)
	return p, nil
}

// noteVerified counts the verified jobs among recs while countVerified
// is set, and reads the peak resident set once the count reaches the
// workload's rssJobs.
func (b *bench) noteVerified(recs []*jobRec) {
	if !b.countVerified {
		return
	}
	n := 0
	for _, r := range recs {
		if !r.failed() {
			n++
		}
	}
	if b.verified.Add(int64(n)) >= int64(b.wl.rssJobs) {
		b.rssOnce.Do(func() { b.rssMB = peakRSSMB() })
	}
}

// send submits one arrival and records the submit span.
func (b *bench) send(a *arrival, p *phase, mu *sync.Mutex) {
	t0 := time.Now()
	for _, r := range a.jobs {
		r.sent = t0
	}
	refuse := func(r *jobRec, why string) {
		r.mu.Lock()
		r.refused = true
		r.mu.Unlock()
		r.fail("%s", why)
	}
	if !a.batch {
		err := b.cl.submit(a.specs[0])
		d := time.Since(t0)
		mu.Lock()
		p.acks = append(p.acks, ms(d))
		if err != nil {
			p.refused++
		}
		mu.Unlock()
		if err != nil {
			refuse(a.jobs[0], err.Error())
		}
		return
	}
	items, err := b.cl.submitBatch(a.specs)
	d := time.Since(t0)
	mu.Lock()
	defer mu.Unlock()
	p.batchAcks = append(p.batchAcks, ms(d))
	for k, r := range a.jobs {
		switch {
		case err != nil:
			refuse(r, err.Error())
			p.refused++
		case !items[k].Accepted:
			refuse(r, fmt.Sprintf("batch item %d: %d %s", k, items[k].Status, items[k].Error))
			p.refused++
		}
	}
}

// sample records the step's backlog — jobs due minus jobs seen
// terminal — every backlogTick until the plan is sent, and on a ladder
// rung counts SLO misses, stopping the rung once they pass the budget.
func (b *bench) sample(p *phase, plan []arrival, start time.Time, d time.Duration, ladder bool, stop *atomic.Bool) {
	budget := int(sloMissFrac * float64(len(p.jobs)))
	tick := time.NewTicker(backlogTick)
	defer tick.Stop()
	end := start.Add(d)
	for now := range tick.C {
		if now.Before(start) {
			continue
		}
		due, done, missed := 0, 0, 0
		for i := range plan {
			if start.Add(plan[i].at).After(now) {
				break
			}
			for _, r := range plan[i].jobs {
				due++
				r.mu.Lock()
				switch {
				case r.refused:
					missed++
				case !r.seen.IsZero():
					done++
					if r.seen.Sub(r.due) > sloLatency {
						missed++
					}
				case now.Sub(r.due) > sloLatency:
					missed++
				}
				r.mu.Unlock()
			}
		}
		p.backlog = append(p.backlog, float64(due-done))
		p.misses = missed
		if ladder && missed > budget {
			p.aborted = true
			stop.Store(true)
			return
		}
		if now.After(end) {
			return
		}
	}
}

// fallback reads the terminal state of every job whose terminal event
// never arrived (the hub drops events for slow subscribers) with a
// long-poll GET, timing the job to the GET's return.
func (b *bench) fallback(p *phase) {
	b.parallel(p.jobs, func(r *jobRec) {
		r.mu.Lock()
		pending := r.seen.IsZero() && !r.refused
		r.mu.Unlock()
		if !pending {
			return
		}
		v, err := b.cl.job(r.id, 30*time.Second)
		if err != nil {
			r.fail("fallback read: %v", err)
			return
		}
		if !v.State.Terminal() {
			r.fail("job %s still %s after the drain", r.id, v.State)
			return
		}
		if r.markSeen(time.Now()) {
			r.mu.Lock()
			r.fallback = true
			r.mu.Unlock()
		}
	})
}

// collect reads every accepted job's view (and, when traced, its
// spans) after the step and checks its outcome against MinWork.
func (b *bench) collect(p *phase, trace bool) {
	b.parallel(p.jobs, func(r *jobRec) {
		r.mu.Lock()
		skip := r.refused || r.err != ""
		r.mu.Unlock()
		if skip {
			return
		}
		v, err := b.cl.job(r.id, 0)
		if err != nil {
			r.fail("read: %v", err)
			return
		}
		b.verify(r, v, trace)
	})
}

// verify checks one job's view against the oracle and, when traced,
// fetches its spans.
func (b *bench) verify(r *jobRec, v *server.JobView, trace bool) {
	r.mu.Lock()
	r.view = v
	r.mu.Unlock()
	if err := checkOutcome(r.bids, v); err != nil {
		r.fail("oracle: %v", err)
		return
	}
	if trace {
		spans, err := b.cl.trace(r.id)
		if err != nil {
			r.fail("%v", err)
			return
		}
		r.mu.Lock()
		r.spans = spans
		r.mu.Unlock()
	}
}

// parallel applies f to every job on nproc goroutines.
func (b *bench) parallel(jobs []*jobRec, f func(*jobRec)) {
	work := make(chan *jobRec)
	var wg sync.WaitGroup
	for i := 0; i < b.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				f(r)
			}
		}()
	}
	for _, r := range jobs {
		work <- r
	}
	close(work)
	wg.Wait()
}

// closedPhase runs clients closed-loop clients for d: each sends its
// next operation of size jobs only after the previous one completed.
func (b *bench) closedPhase(name string, clients, size int, d time.Duration, trace bool) (*phase, error) {
	p := &phase{name: name}
	b.phases++
	if err := b.begin(p); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		g := newJobGen(b.wl.shape, b.rng.Int63(), fmt.Sprintf("%s%d-c%d", name, b.phases, c))
		pick := rand.New(rand.NewSource(b.rng.Int63()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				b.closedOp(p, g, pick, size, trace, &mu)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p, b.end(p)
}

// closedOp is one closed-loop operation: a single job, or a batch of
// size jobs waited for one by one; on durable-batch, each job and its
// transcript are then read.
func (b *bench) closedOp(p *phase, g *jobGen, pick *rand.Rand, size int, trace bool, mu *sync.Mutex) {
	recs := make([]*jobRec, size)
	specs := make([]server.JobSpec, size)
	for k := range recs {
		recs[k], specs[k] = g.job("", trace)
		b.tr.add(recs[k])
	}
	t0 := time.Now()
	accepted := make([]bool, size)
	if size > 1 {
		items, err := b.cl.submitBatch(specs)
		for k := range recs {
			switch {
			case err != nil:
				recs[k].fail("%v", err)
			case !items[k].Accepted:
				recs[k].fail("batch item %d: %d %s", k, items[k].Status, items[k].Error)
			default:
				accepted[k] = true
			}
		}
	} else {
		err := b.cl.submit(specs[0])
		if err != nil {
			recs[0].fail("%v", err)
		}
		accepted[0] = err == nil
	}
	ack := time.Since(t0)
	for k, r := range recs {
		r.due, r.sent = t0, t0
		if !accepted[k] {
			r.mu.Lock()
			r.refused = true
			r.mu.Unlock()
			continue
		}
		v, err := b.cl.job(r.id, time.Minute)
		now := time.Now()
		if err != nil {
			r.fail("wait: %v", err)
			continue
		}
		if !v.State.Terminal() {
			r.fail("job %s still %s after a minute", r.id, v.State)
			continue
		}
		r.markSeen(now)
		b.verify(r, v, trace)
	}
	var reads []float64
	if b.wl.batch {
		keep := pick.Intn(size)
		for k, r := range recs {
			if !accepted[k] || r.failed() {
				continue
			}
			t1 := time.Now()
			v, err := b.cl.job(r.id, 0)
			t2 := time.Now()
			reads = append(reads, ms(t2.Sub(t1)))
			if err == nil && v.State != server.StateDone {
				err = fmt.Errorf("read %s: state %s", r.id, v.State)
			}
			if err != nil {
				r.fail("%v", err)
				continue
			}
			body, err := b.cl.transcript(r.id)
			reads = append(reads, ms(time.Since(t2)))
			if err != nil {
				r.fail("%v", err)
				continue
			}
			if k == keep {
				b.keepTranscript(body)
			}
		}
	}
	b.noteVerified(recs)
	mu.Lock()
	defer mu.Unlock()
	p.jobs = append(p.jobs, recs...)
	if size > 1 {
		p.batchAcks = append(p.batchAcks, ms(ack))
	} else {
		p.acks = append(p.acks, ms(ack))
	}
	p.reads = append(p.reads, reads...)
	for k := range recs {
		if !accepted[k] {
			p.refused++
		}
	}
}

func (b *bench) keepTranscript(body []byte) {
	b.auditMu.Lock()
	defer b.auditMu.Unlock()
	if len(b.auditKeep) < auditCap {
		b.auditKeep = append(b.auditKeep, body)
	}
}

// auditTranscripts verifies the kept transcripts with the offline
// auditor; it returns one error per transcript that fails to load or
// carries a finding.
func (b *bench) auditTranscripts() (checked int, errs []error) {
	var mu sync.Mutex
	work := make(chan []byte)
	var wg sync.WaitGroup
	for i := 0; i < b.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range work {
				err := auditOne(body)
				mu.Lock()
				checked++
				if err != nil {
					errs = append(errs, err)
				}
				mu.Unlock()
			}
		}()
	}
	for _, body := range b.auditKeep {
		work <- body
	}
	close(work)
	wg.Wait()
	return checked, errs
}

func auditOne(body []byte) error {
	env, err := audit.Load(bytes.NewReader(body))
	if err != nil {
		return err
	}
	rep, err := audit.Verify(env.Params, env.Transcript)
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("transcript %x: findings %v, payments ok %v", sha256.Sum256(body), rep.Findings, rep.PaymentsOK)
	}
	return nil
}

// warm sends untimed traffic so connections, caches and lazily built
// state are in place before anything is measured.
func (b *bench) warm(g *jobGen, rate float64) error {
	if b.wl.open {
		p, err := b.openStep("warmup", g, rate, time.Second, false, false)
		if err != nil {
			return err
		}
		return p.firstFailure()
	}
	p, err := b.closedPhase("warmup", b.nproc, b.wl.opSize(), 500*time.Millisecond, false)
	if err != nil {
		return err
	}
	return p.firstFailure()
}

func (p *phase) firstFailure() error {
	for _, r := range p.jobs {
		r.mu.Lock()
		e := r.err
		r.mu.Unlock()
		if e != "" {
			return fmt.Errorf("%s: job %s: %s", p.name, r.id, e)
		}
	}
	return nil
}

// countOps submits a few count_ops jobs after the timed window for the
// exact group-operation counts (count_ops bypasses the verification
// coalescer, so it never runs inside a measured phase).
func (b *bench) countOps(g *jobGen, n int) ([]server.JobResult, error) {
	var out []server.JobResult
	for i := 0; i < n; i++ {
		r, spec := g.job("", false)
		spec.CountOps = true
		if err := b.cl.submit(spec); err != nil {
			return nil, err
		}
		v, err := b.cl.job(r.id, time.Minute)
		if err != nil {
			return nil, err
		}
		if err := checkOutcome(r.bids, v); err != nil {
			return nil, err
		}
		out = append(out, *v.Result)
	}
	return out, nil
}
