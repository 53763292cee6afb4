package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	protocol "dmw/internal/dmw"
)

// result is what one run prints.
type result struct {
	text              string
	metrics           *report
	attempted, failed int
	// errors are correctness failures: a wrong or missing outcome, a
	// non-terminal job, an audit finding. Any makes the run exit 1.
	errors []string
}

// run boots the workload's deployment, drives it and computes either
// the end-to-end metrics (untraced) or the per-layer metrics.
func run(wl *workload, seed int64, window time.Duration, traced bool, workBase string) (*result, error) {
	workDir := workDirFor(workBase, seed)
	defer os.RemoveAll(workDir)
	f, err := bootFleet(wl.topo, workDir)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	nproc := runtime.NumCPU()
	b := &bench{
		wl:      wl,
		seed:    seed,
		nproc:   nproc,
		workDir: workDir,
		cl:      newClient(f.URL, nproc),
		tr:      newTracker(),
		rng:     rand.New(rand.NewSource(seed)),
	}
	defer b.cl.close()
	es, err := openEvents(f.URL, b.tr)
	if err != nil {
		return nil, err
	}
	defer es.Close()
	g := newJobGen(wl.shape, b.rng.Int63(), "job")
	if err := b.warm(g, ratedRate); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res := &result{}
	var sb strings.Builder
	if traced {
		err = b.layers(g, window, res, &sb)
	} else {
		err = b.endToEnd(g, window, res, &sb)
	}
	if err != nil {
		return nil, err
	}
	if wl.batch {
		checked, errs := b.auditTranscripts()
		fmt.Fprintf(&sb, "  audit: %d sampled transcripts verified, %d findings\n", checked, len(errs))
		for _, e := range errs {
			res.errors = append(res.errors, "audit: "+e.Error())
		}
	}
	if miss := res.metrics.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("metrics not computed: %v", miss)
	}
	res.text = sb.String() + res.metrics.lines()
	return res, nil
}

// slicer runs one slice, of length d, of the named phase.
type slicer func(name string, d time.Duration) (*phase, error)

// lowSlicer runs the workload's low phase: on fleet-open a rate at which
// jobs seldom overlap, on the closed loops one client.
func (b *bench) lowSlicer(g *jobGen, trace bool) slicer {
	if b.wl.open {
		return func(name string, d time.Duration) (*phase, error) {
			return b.openStep(name, g, lowRate, d, trace, false)
		}
	}
	return func(name string, d time.Duration) (*phase, error) {
		return b.closedPhase(name, 1, b.wl.opSize(), d, trace)
	}
}

// mainSlicer runs the workload's main phase: on fleet-open the rated
// rate, on the closed loops nproc clients.
func (b *bench) mainSlicer(g *jobGen, trace bool) slicer {
	if b.wl.open {
		return func(name string, d time.Duration) (*phase, error) {
			return b.openStep(name, g, ratedRate, d, trace, false)
		}
	}
	return func(name string, d time.Duration) (*phase, error) {
		return b.closedPhase(name, b.nproc, b.wl.opSize(), d, trace)
	}
}

// capacitySlicer runs fleet-open's capacity phase: nproc closed-loop
// clients that each keep a batch of capacityBatch jobs in flight.
func (b *bench) capacitySlicer() slicer {
	return func(name string, d time.Duration) (*phase, error) {
		return b.closedPhase(name, b.nproc, capacityBatch, d, false)
	}
}

// phaseSpec is a phase to measure: its name, its share of the window
// and how to run one slice of it.
type phaseSpec struct {
	name  string
	share float64
	run   slicer
}

// sliced measures the phases in phaseSlices rounds; each round runs one
// slice of every phase in turn. A burst of host noise (a busy neighbour
// on a shared machine) then weighs on every phase alike instead of on
// whichever phase it hit. between, when not nil, runs before each
// round, while the deployment is idle.
func (b *bench) sliced(window time.Duration, specs []phaseSpec, between func() error) ([]*phase, error) {
	out := make([]*phase, len(specs))
	for i, sp := range specs {
		out[i] = &phase{name: sp.name}
	}
	for round := 0; round < phaseSlices; round++ {
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
		for i := range out {
			p, err := specs[i].run(specs[i].name, scale(window, specs[i].share)/phaseSlices)
			if err != nil {
				return nil, err
			}
			b.slices = append(b.slices, p.summary())
			out[i].absorb(p)
		}
	}
	return out, nil
}

// phaseSlices is how many alternating slices the low and main phases are
// measured in.
const phaseSlices = 7

// account adds the phases' jobs to the run's attempted and failed
// counts and their correctness failures to its errors.
func (res *result) account(ps ...*phase) {
	for _, p := range ps {
		res.attempted += len(p.jobs)
		res.failed += p.failures()
		res.recordErrors(p)
	}
}

// recordErrors adds the correctness failures of p's jobs to the run's
// errors. Refusals are not among them: on the low and main phases
// account counts them as failed jobs, and on a step run above capacity
// they are what the step measures.
func (res *result) recordErrors(p *phase) {
	for _, r := range p.jobs {
		r.mu.Lock()
		if r.err != "" && !r.refused {
			res.errors = append(res.errors, fmt.Sprintf("%s %s: %s", p.name, r.id, r.err))
		}
		r.mu.Unlock()
	}
}

// endToEnd measures the untraced metrics.
func (b *bench) endToEnd(g *jobGen, window time.Duration, res *result, sb *strings.Builder) error {
	rep, also := newReport(endToEnd), newReport(reportedOnly)
	res.metrics = rep

	// Set-up probes run between the rounds of slices, while the
	// deployment is idle, so that they too sample the whole window.
	probeSeeds := rand.New(rand.NewSource(b.seed))
	var setups []float64
	probe := func() error {
		for i := 0; i < setupProbesPerRound; i++ {
			v, err := probeSetup(b.wl, probeSeeds.Int63(), b.workDir)
			if err != nil {
				return err
			}
			setups = append(setups, v)
		}
		return nil
	}
	specs := []phaseSpec{{"low", 0.25, b.lowSlicer(g, false)}, {"main", 0.75, b.mainSlicer(g, false)}}
	if b.wl.open {
		// The rest of the window is the ladder's.
		specs = []phaseSpec{{"low", 0.2, b.lowSlicer(g, false)}, {"rated", 0.25, b.mainSlicer(g, false)},
			{"capacity", 0.35, b.capacitySlicer()}}
	}
	b.countVerified = true
	ps, err := b.sliced(window, specs, probe)
	if err != nil {
		return err
	}
	b.countVerified = false
	res.account(ps...)
	lo, mn := ps[0], ps[1]
	// The phase whose verified jobs per second are throughput_jobs_s.
	thr := ps[len(ps)-1]
	for _, line := range b.slices {
		fmt.Fprintln(sb, " slice", line)
	}
	for _, p := range ps {
		fmt.Fprintln(sb, p.summary())
	}
	rep.set("setup_s", median(setups), fmt.Sprintf("median of %d cold boots %v", len(setups), fmtList(setups)))

	// Host noise on a shared machine only ever adds latency, so the
	// floor is the median of the least disturbed low-phase slice.
	rep.set("latency_p50_ms.low", slices.Min(lo.sliceP50s),
		fmt.Sprintf("lowest of %d slice medians %v", len(lo.sliceP50s), fmtList(lo.sliceP50s)))
	lat := mn.latencies()
	p99, q, err := tail(lat, 0.99)
	if err != nil {
		return fmt.Errorf("%s: %w", mn.name, err)
	}
	also.set("latency_p50_ms", median(lat), fmt.Sprintf("%s, n=%d", mn.name, len(lat)))
	also.set("latency_p99_ms", p99, fmt.Sprintf("%s, p%.2f of n=%d", mn.name, q*100, len(lat)))
	also.set("failed_frac", frac(res.failed, res.attempted),
		fmt.Sprintf("%d of %d jobs in the measured phases", res.failed, res.attempted))
	rep.set("throughput_jobs_s", float64(thr.verified())/thr.elapsed.Seconds(),
		fmt.Sprintf("%s: %d verified jobs in %.2fs", thr.name, thr.verified(), thr.elapsed.Seconds()))

	rss, note := b.rssMB, fmt.Sprintf("getrusage maxrss of the whole process once %d jobs were verified", b.wl.rssJobs)
	if b.rssMB == 0 {
		rss, note = peakRSSMB(), fmt.Sprintf("getrusage maxrss of the whole process: fewer than %d jobs verified", b.wl.rssJobs)
	}
	rep.set("peak_rss_mb", rss, note)
	if !b.wl.open {
		also.set("max_rate_at_slo_jobs_s", 0, "closed loop: no offered rate")
	} else {
		rate, err := b.ladder(g, mn, scale(window, 0.2), res, sb)
		if err != nil {
			return err
		}
		also.set("max_rate_at_slo_jobs_s", rate, "highest ladder rate meeting the SLO (goodput)")
	}
	fmt.Fprintf(sb, "  reported, not gated (too noisy on a shared VM, see README.md):\n%s", also.lines())
	return nil
}

// ladder climbs the fixed ladder rates above the rated step for at
// most budget. A rung misses when more than 1% of its jobs are late,
// failed or refused, or when its backlog grows; a missed rung is tried
// once more, since a 2 s rung can fall in a burst of host noise, and a
// second miss ends the ladder. It returns the goodput of the highest
// rung that passed, the rated step counting as the ladder's base.
func (b *bench) ladder(g *jobGen, rated *phase, budget time.Duration, res *result, sb *strings.Builder) (float64, error) {
	if ok, why := rungPasses(rated); !ok {
		fmt.Fprintf(sb, "  rated step misses the SLO: %s\n", why)
		return 0, nil
	}
	best := goodput(rated)
	const step = 2 * time.Second
	deadline := time.Now().Add(budget)
	for _, rate := range ladderRates {
		passed := false
		for try := 0; try < 2 && !passed; try++ {
			if time.Now().Add(step).After(deadline.Add(step / 2)) {
				fmt.Fprintf(sb, "  ladder: out of time at %.0f jobs/s\n", rate)
				return best, nil
			}
			p, err := b.openStep(fmt.Sprintf("ladder-%.0f", rate), g, rate, step, false, true)
			if err != nil {
				return 0, err
			}
			res.recordErrors(p)
			ok, why := rungPasses(p)
			verdict := "meets SLO"
			if !ok {
				verdict = "misses SLO: " + why
			}
			fmt.Fprintf(sb, "%s -> %s\n", p.summary(), verdict)
			if ok {
				passed = true
				best = goodput(p)
			}
			b.drain()
		}
		if !passed {
			break
		}
	}
	return best, nil
}

// rungPasses applies the SLO and the backlog test to an open-loop step.
func rungPasses(p *phase) (bool, string) {
	budget := int(sloMissFrac * float64(len(p.jobs)))
	misses := 0
	for _, r := range p.jobs {
		if r.failed() || r.latencyMS() > ms(sloLatency) {
			misses++
		}
	}
	switch {
	case p.aborted:
		return false, fmt.Sprintf("stopped early, %d misses", p.misses)
	case misses > budget:
		return false, fmt.Sprintf("%d of %d jobs missed", misses, len(p.jobs))
	case p.grew:
		return false, "backlog grows"
	}
	return true, ""
}

// goodput is the rate at which a step's verified jobs completed while
// the step had work in the deployment: summed over its slices, from the
// first due instant to the last terminal observation.
func goodput(p *phase) float64 {
	return ratio(float64(p.verified()), p.busy.Seconds())
}

// busySpan is the time from the first due instant to the last terminal
// observation among p's verified jobs.
func busySpan(p *phase) time.Duration {
	var first, last time.Time
	for _, r := range p.jobs {
		if r.failed() {
			continue
		}
		r.mu.Lock()
		if first.IsZero() || r.due.Before(first) {
			first = r.due
		}
		if r.seen.After(last) {
			last = r.seen
		}
		r.mu.Unlock()
	}
	if !last.After(first) {
		return 0
	}
	return last.Sub(first)
}

// drain waits until the deployment's queue is empty, so that a step run
// above capacity does not leak its backlog into the next step.
func (b *bench) drain() {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m, err := b.cl.scrape()
		if err != nil || m["dmwd_queue_depth"] == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// layers measures the per-layer metrics: an untraced pass for counters
// and job-record fields, a traced pass for span self times, and a
// count_ops sample afterwards.
func (b *bench) layers(g *jobGen, window time.Duration, res *result, sb *strings.Builder) error {
	rep := newReport(perLayer)
	res.metrics = rep
	// The untraced and traced passes alternate slice by slice, so that
	// their difference is the tracing's cost, not the host's drift.
	main := "main"
	if b.wl.open {
		main = "rated"
	}
	ps, err := b.sliced(window, []phaseSpec{
		{"low", 0.1, b.lowSlicer(g, false)}, {main, 0.4, b.mainSlicer(g, false)},
		{"low-traced", 0.1, b.lowSlicer(g, true)}, {main + "-traced", 0.4, b.mainSlicer(g, true)},
	}, nil)
	if err != nil {
		return err
	}
	uLo, uMn, tLo, tMn := ps[0], ps[1], ps[2], ps[3]
	res.account(ps...)
	for _, p := range []*phase{uLo, uMn, tLo, tMn} {
		fmt.Fprintln(sb, p.summary())
	}
	ops, err := b.countOps(g, 3)
	if err != nil {
		return fmt.Errorf("count_ops sample: %w", err)
	}

	gw := b.wl.topo == gatewayPair
	jr := b.wl.topo == journalReplica
	all := func(series string) float64 {
		return uLo.delta(series) + uMn.delta(series) + tLo.delta(series) + tMn.delta(series)
	}
	if gw {
		acks99, q, _ := tail(uMn.acks, 0.99)
		rep.set("gateway.submit_ack_ms_p50", median(uMn.acks), fmt.Sprintf("%d single submits", len(uMn.acks)))
		rep.set("gateway.submit_ack_ms_p99", acks99, fmt.Sprintf("p%.2f", q*100))
		rep.set("gateway.submit_ack_ms_p50.low", median(uLo.acks), "")
		rep.set("gateway.submit_batch_size_mean", ratio(uMn.delta("dmwgw_submit_batch_size_sum"), uMn.delta("dmwgw_submit_batch_size_count")), "coalesced flushes only; coalescing is off by default")
		rep.set("gateway.failovers", all("dmwgw_failovers_total"), "")
		rep.set("wire.fallbacks", all("dmwgw_wire_fallbacks_total"), "")
	} else {
		for _, name := range []string{"gateway.submit_ack_ms_p50", "gateway.submit_ack_ms_p99", "gateway.submit_ack_ms_p50.low",
			"gateway.submit_batch_size_mean", "gateway.failovers", "wire.fallbacks"} {
			rep.set(name, 0, "no gateway in this deployment")
		}
	}

	rep.set("edge.hop_ms_p50", median(perJob(uMn, hopMS)), "client latency - queue_wait_ms - run_ms")
	rep.set("edge.hop_ms_p50.low", median(perJob(uLo, hopMS)), "")
	queue := perJob(uMn, func(r *jobRec) (float64, bool) { return r.view.QueueWaitMS, true })
	queue99, q, _ := tail(queue, 0.99)
	rep.set("server.queue_wait_ms_p50", median(queue), "")
	rep.set("server.queue_wait_ms_p99", queue99, fmt.Sprintf("p%.2f of n=%d", q*100, len(queue)))
	rep.set("server.finish_ms_p50", median(perJob(uMn, finishMS)), "run_ms - sum of dmw phases")
	rep.set("server.shed_frac", frac(uMn.refused, len(uMn.jobs)), "")
	rep.set("server.events_dropped", all("dmwd_events_dropped_total"), fmt.Sprintf("%d jobs timed by fallback GET", fallbacks(uLo, uMn, tLo, tMn)))
	rep.set("server.read_ms_p50", median(uMn.reads), fmt.Sprintf("%d job and transcript GETs", len(uMn.reads)))
	for _, ph := range protocol.PhaseNames {
		ph := ph
		rep.set("dmw."+ph+"_ms_p50", median(perJob(uMn, func(r *jobRec) (float64, bool) {
			v, ok := r.phases[ph]
			return v, ok
		})), "phase events")
	}

	span := func(p *phase, name string) []float64 {
		return perJob(p, func(r *jobRec) (float64, bool) {
			if len(r.spans) == 0 {
				return 0, false
			}
			return selfTimes(r.spans)[name], true
		})
	}
	rep.set("commit.verify_ms_p50", median(span(tMn, "commit_verify")), "span self time per job, traced pass")
	rep.set("commit.verify_ms_p50.low", median(span(tLo, "commit_verify")), "")
	rep.set("commit.lambda_psi_ms_p50", median(span(tMn, "lambda_psi")), "")
	rep.set("commit.disclosure_ms_p50", median(span(tMn, "disclosure")), "")
	rep.set("commit.verify_batch_items_mean", ratio(uMn.delta("dmwd_verify_batch_size_sum"), uMn.delta("dmwd_verify_batch_size_count")), "")
	rep.set("commit.verify_batch_items_mean.low", ratio(uLo.delta("dmwd_verify_batch_size_sum"), uLo.delta("dmwd_verify_batch_size_count")), "")

	var mexp, terms, exps, muls float64
	for _, o := range ops {
		mexp += float64(o.GroupMultiExps)
		terms += float64(o.GroupMultiExpTerms)
		exps += float64(o.GroupExp)
		muls += float64(o.GroupMul)
	}
	n := float64(len(ops))
	note := fmt.Sprintf("count_ops sample of %d jobs after the window", len(ops))
	rep.set("group.multiexps_per_job", mexp/n, note)
	rep.set("group.multiexp_terms_per_job", terms/n, "")
	rep.set("group.exps_per_job", exps/n, "")
	rep.set("group.muls_per_job", muls/n, "")

	field := func(f func(*jobRec) int64) []float64 {
		return perJob(uMn, func(r *jobRec) (float64, bool) { return float64(f(r)), true })
	}
	rep.set("transport.msgs_per_job", mean(field(func(r *jobRec) int64 { return r.view.Result.Messages })), "")
	rep.set("transport.wire_bytes_per_job", mean(field(func(r *jobRec) int64 { return r.view.Result.WireBytes })), "")
	rep.set("transport.rounds_per_job", mean(field(func(r *jobRec) int64 { return r.view.Result.Rounds })), "")

	jobs := float64(len(uMn.jobs))
	rep.set("journal.fsyncs_per_job", uMn.delta("dmwd_journal_fsyncs_total")/jobs, "")
	rep.set("journal.appends_per_job", uMn.delta("dmwd_journal_appends_total")/jobs, "")
	rep.set("journal.bytes_per_job", uMn.delta("dmwd_journal_bytes_total")/jobs, "")
	if jr {
		rep.set("journal.batch_ack_ms_p50", median(uMn.batchAcks), "batch POST span")
	} else {
		rep.set("journal.batch_ack_ms_p50", 0, "no journal in this deployment")
	}

	rep.set("runtime.alloc_kb_per_job", float64(uMn.allocBytes)/1024/jobs, "whole process, untraced main phase")
	rep.set("runtime.gc_cycles_per_job", float64(uMn.gcCycles)/jobs, "")
	if b.wl.open {
		lag99, q, _ := tail(uMn.lags, 0.99)
		rep.set("loadgen.send_lag_ms_p99", lag99, fmt.Sprintf("p%.2f of %d arrivals", q*100, len(uMn.lags)))
	} else {
		rep.set("loadgen.send_lag_ms_p99", 0, "closed loop: every job is sent when due")
	}
	rep.set("trace.overhead_ms_p50", median(tMn.latencies())-median(uMn.latencies()), "traced - untraced latency p50, main phase")
	rep.set("unattributed_ms_p50", median(perJob(uMn, unattributedMS)), "latency - send lag - queue wait - dmw phases - finish")
	fmt.Fprint(sb, breakdown(uMn))
	return nil
}

// perJob applies f to every verified job of p that has a view.
func perJob(p *phase, f func(*jobRec) (float64, bool)) []float64 {
	var out []float64
	for _, r := range p.jobs {
		if r.failed() {
			continue
		}
		r.mu.Lock()
		if r.view != nil {
			if v, ok := f(r); ok {
				out = append(out, v)
			}
		}
		r.mu.Unlock()
	}
	return out
}

// The per-job attribution: a job's client latency splits into the
// generator's send lag, the replica's queue wait, the dmw phases, the
// replica's finish (run_ms past the phases), and the remainder outside
// the replica's job record — the HTTP hops, the gateway and the event
// delivery. Callers hold r.mu.

func hopMS(r *jobRec) (float64, bool) {
	return ms(r.seen.Sub(r.due)) - r.view.QueueWaitMS - r.view.RunMS, true
}

func phaseSumMS(r *jobRec) (float64, bool) {
	if len(r.phases) < len(protocol.PhaseNames) {
		return 0, false
	}
	var s float64
	for _, ph := range protocol.PhaseNames {
		s += r.phases[ph]
	}
	return s, true
}

func finishMS(r *jobRec) (float64, bool) {
	s, ok := phaseSumMS(r)
	return r.view.RunMS - s, ok
}

func unattributedMS(r *jobRec) (float64, bool) {
	hop, _ := hopMS(r)
	return hop - ms(r.sent.Sub(r.due)), true
}

// breakdown prints the phase's mean latency split into the attributed
// layers; the parts add up to the total.
func breakdown(p *phase) string {
	parts := []struct {
		name string
		f    func(*jobRec) (float64, bool)
	}{
		{"send lag", func(r *jobRec) (float64, bool) { return ms(r.sent.Sub(r.due)), true }},
		{"queue wait", func(r *jobRec) (float64, bool) { return r.view.QueueWaitMS, true }},
		{"dmw phases", phaseSumMS},
		{"finish", finishMS},
		{"unattributed", unattributedMS},
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %s mean latency %.3f ms =", p.name, mean(perJob(p, func(r *jobRec) (float64, bool) { return ms(r.seen.Sub(r.due)), true })))
	for i, pt := range parts {
		if i > 0 {
			sb.WriteString(" +")
		}
		fmt.Fprintf(&sb, " %s %.3f", pt.name, mean(perJob(p, pt.f)))
	}
	sb.WriteString("\n")
	return sb.String()
}

func fallbacks(ps ...*phase) int {
	n := 0
	for _, p := range ps {
		for _, r := range p.jobs {
			r.mu.Lock()
			if r.fallback {
				n++
			}
			r.mu.Unlock()
		}
	}
	return n
}

// summary is one human-readable line per phase.
func (p *phase) summary() string {
	lat := p.latencies()
	tailMS, q, err := tail(lat, 0.99)
	tailText := fmt.Sprintf("p%.2f %.3f ms", q*100, tailMS)
	if err != nil {
		tailText = "tail n/a"
	}
	return fmt.Sprintf("  phase %-12s jobs %5d verified %5d refused %3d in %6.2fs  p50 %.3f ms  %s",
		p.name, len(p.jobs), p.verified(), p.refused, p.elapsed.Seconds(), median(lat), tailText)
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func frac(a, b int) float64 { return ratio(float64(a), float64(b)) }

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
