package commit

import (
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmw/internal/group"
)

// pendingCount peeks at the coalescer's queue so tests can arrange a
// DETERMINISTIC coalesced pass: hold every pass slot, queue the jobs
// behind it, then free the slot with all of them queued.
func (c *Coalescer) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

func waitPending(t *testing.T, c *Coalescer, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.pendingCount() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d pending requests (have %d)", want, c.pendingCount())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// parkFirstPass makes the next pass c runs block inside its observe
// callback (hidden from the test's own observe hook) until the
// returned release func is called. The returned channel is closed once
// that pass is parked, i.e. holding its slot.
func parkFirstPass(c *Coalescer) (parked <-chan struct{}, release func()) {
	observe := c.observe
	park, unpark := make(chan struct{}), make(chan struct{})
	first := true // only touched by passes, which the slot hand-off orders
	c.observe = func(n int) {
		if first {
			first = false
			close(park)
			<-unpark
			return
		}
		if observe != nil {
			observe(n)
		}
	}
	return park, func() { close(unpark) }
}

// coalesceFixture runs every receiver's verification through one
// coalescer in a single combined pass and returns the per-receiver
// errors. It bounds c to one pass slot, parks a plug pass in that slot
// (its verdict and observation are discarded), queues every job behind
// it, then frees the slot: the hand-off drains all jobs as one pass.
func coalesceFixture(t *testing.T, c *Coalescer, jobs [][]BatchItem, powers [][]*big.Int) []error {
	t.Helper()
	c.slots = 1
	parked, release := parkFirstPass(c)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = c.VerifyShares(powers[0], jobs[0], rand.New(rand.NewSource(999)))
	}()
	<-parked

	errs := make([]error, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.VerifyShares(powers[i], jobs[i], rand.New(rand.NewSource(int64(1000+i))))
		}(i)
	}
	waitPending(t, c, len(jobs))
	release()
	wg.Wait()
	return errs
}

// receiverJobs builds every receiver's honest share-verification
// request over one 8-agent bid profile.
func receiverJobs(t *testing.T) (*group.Group, [][]BatchItem, [][]*big.Int) {
	t.Helper()
	g, cfg, alphas := testSetup(t)
	encs, comms := buildAll(t, g, cfg, []int{2, 1, 3, 4, 2, 3, 1, 4})
	jobs := make([][]BatchItem, len(alphas))
	powers := make([][]*big.Int, len(alphas))
	for i, alpha := range alphas {
		powers[i] = PowersOf(g.Scalars(), alpha, cfg.Sigma())
		jobs[i] = batchItems(t, encs, comms, alpha, i)
	}
	return g, jobs, powers
}

// corruptShares tampers with every share guilty sent in job.
func corruptShares(job []BatchItem, guilty int) {
	for idx, it := range job {
		if it.Sender != guilty {
			continue
		}
		s := it.S.Clone()
		s.E.Add(s.E, big.NewInt(1))
		job[idx].S = s
	}
}

// TestCoalescerGuiltyJobIsolation is the cross-job attribution pin: a
// combined pass mixing ONE corrupt job among honest ones must fail only
// the corrupt job, name that job's guilty sender, and hand every honest
// job a clean nil — coalescing never spreads blame across jobs.
func TestCoalescerGuiltyJobIsolation(t *testing.T) {
	g, jobs, powers := receiverJobs(t)
	const corrupt, guilty = 3, 6
	corruptShares(jobs[corrupt], guilty)

	var passes, items int
	c := NewCoalescer(g, 0, func(n int) { passes++; items += n })
	errs := coalesceFixture(t, c, jobs, powers)

	for i, err := range errs {
		if i == corrupt {
			var verr *VerifyError
			if !errors.As(err, &verr) {
				t.Fatalf("corrupt job %d: error = %v, want *VerifyError", i, err)
			}
			if verr.Sender != guilty {
				t.Errorf("corrupt job blames sender %d, want %d", verr.Sender, guilty)
			}
			continue
		}
		if err != nil {
			t.Errorf("honest job %d failed: %v (cross-job blame)", i, err)
		}
	}
	// The scenario only means something if the jobs actually shared a
	// pass: one combined pass over every job's items.
	if passes != 1 {
		t.Fatalf("jobs ran in %d passes, want 1 combined pass", passes)
	}
	wantItems := 0
	for _, j := range jobs {
		wantItems += len(j)
	}
	if items != wantItems {
		t.Errorf("observed %d items, want %d", items, wantItems)
	}
}

// TestCoalescerHonestCombinedPass: all-honest jobs coalesce into one
// pass and all accept.
func TestCoalescerHonestCombinedPass(t *testing.T) {
	g, jobs, powers := receiverJobs(t)
	var passes int
	c := NewCoalescer(g, 0, func(int) { passes++ })
	for i, err := range coalesceFixture(t, c, jobs, powers) {
		if err != nil {
			t.Errorf("honest job %d rejected: %v", i, err)
		}
	}
	if passes != 1 {
		t.Errorf("honest jobs ran in %d passes, want 1", passes)
	}
}

// TestCoalescerChunkingRespectsMaxTerms: with maxTerms forcing one
// request per chunk, a drained batch still verifies every job
// correctly — the bound changes grouping, never verdicts.
func TestCoalescerChunkingRespectsMaxTerms(t *testing.T) {
	g, jobs, powers := receiverJobs(t)
	perJobTerms := 3 * len(powers[0]) * len(jobs[0])
	var passes int
	c := NewCoalescer(g, perJobTerms, func(int) { passes++ })
	for i, err := range coalesceFixture(t, c, jobs, powers) {
		if err != nil {
			t.Errorf("job %d rejected: %v", i, err)
		}
	}
	if passes != len(jobs) {
		t.Errorf("ran %d passes, want %d (maxTerms forces one request per chunk)", passes, len(jobs))
	}
}

// TestCoalescerStructuralErrorImmediate: malformed input is attributed
// before joining any pass — no wait for a slot, no combined check.
func TestCoalescerStructuralErrorImmediate(t *testing.T) {
	g, cfg, alphas := testSetup(t)
	encs, comms := buildAll(t, g, cfg, []int{2, 1, 3, 4, 2, 3, 1, 4})
	sigma := cfg.Sigma()
	pw := PowersOf(g.Scalars(), alphas[0], sigma)
	items := batchItems(t, encs, comms, alphas[0], 0)
	s := items[2].S.Clone()
	s.G = nil
	items[2].S = s

	// Hold the only pass slot: a malformed request that queued for it
	// would hang until the slot is released below.
	c := NewCoalescer(g, 0, nil)
	c.slots = 1
	parked, release := parkFirstPass(c)
	plug := batchItems(t, encs, comms, alphas[0], 0)
	plugDone := make(chan struct{})
	go func() {
		defer close(plugDone)
		_ = c.VerifyShares(pw, plug, rand.New(rand.NewSource(2)))
	}()
	<-parked
	defer func() { release(); <-plugDone }()
	start := time.Now()
	err := c.VerifyShares(pw, items, rand.New(rand.NewSource(1)))
	var verr *VerifyError
	if !errors.As(err, &verr) || verr.Sender != items[2].Sender {
		t.Fatalf("error = %v, want *VerifyError for sender %d", err, items[2].Sender)
	}
	if time.Since(start) > 10*time.Second {
		t.Error("structural error waited for a pass slot")
	}
	if c.pendingCount() != 0 {
		t.Error("structural error joined the pending queue")
	}
}

// TestCoalescerEmptyItems: nothing to verify accepts immediately.
func TestCoalescerEmptyItems(t *testing.T) {
	g, _, _ := testSetup(t)
	c := NewCoalescer(g, 0, nil)
	if err := c.VerifyShares(nil, nil, rand.New(rand.NewSource(1))); err != nil {
		t.Error(err)
	}
}

// TestCoalescerMatchesBatchVerdicts: a solo pass (no concurrent
// company) must agree exactly with BatchVerifyShares, including the
// attributed sender and equation error on tampered input.
func TestCoalescerMatchesBatchVerdicts(t *testing.T) {
	g, cfg, alphas := testSetup(t)
	encs, comms := buildAll(t, g, cfg, []int{2, 1, 3, 4, 2, 3, 1, 4})
	sigma := cfg.Sigma()
	pw := PowersOf(g.Scalars(), alphas[0], sigma)
	items := batchItems(t, encs, comms, alphas[0], 0)
	const guilty = 5
	for idx := range items {
		if items[idx].Sender != guilty {
			continue
		}
		ctam := items[idx].C.Clone()
		ctam.O[1] = g.Mul(ctam.O[1], g.Params().Z1)
		items[idx].C = ctam
	}

	want := BatchVerifyShares(g, pw, items, rand.New(rand.NewSource(3)))
	c := NewCoalescer(g, 0, nil)
	got := c.VerifyShares(pw, items, rand.New(rand.NewSource(3)))

	var wantV, gotV *VerifyError
	if !errors.As(want, &wantV) || !errors.As(got, &gotV) {
		t.Fatalf("want %v, got %v — both should be *VerifyError", want, got)
	}
	if gotV.Sender != wantV.Sender || !errors.Is(got, wantV.Err) {
		t.Errorf("coalesced verdict (%d, %v) differs from batch verdict (%d, %v)",
			gotV.Sender, gotV.Err, wantV.Sender, wantV.Err)
	}
}

// TestCoalescerConcurrentStress drives many rounds of concurrent
// requests through a coalescer with fewer pass slots than requests, so
// finishing passes hand their slots to queued requests; run under
// -race this pins the slot hand-off. Verdict correctness is covered
// above — here every job is honest and must accept, and the passes
// together must cover every item exactly once.
func TestCoalescerConcurrentStress(t *testing.T) {
	g, cfg, alphas := testSetup(t)
	encs, comms := buildAll(t, g, cfg, []int{2, 1, 3, 4, 2, 3, 1, 4})
	sigma := cfg.Sigma()
	var observed atomic.Int64
	c := NewCoalescer(g, 0, func(n int) { observed.Add(int64(n)) })
	c.slots = 2

	var wg sync.WaitGroup
	errs := make([]error, len(alphas)*3)
	total := 0
	for round := 0; round < 3; round++ {
		for i, alpha := range alphas {
			pw := PowersOf(g.Scalars(), alpha, sigma)
			items := batchItems(t, encs, comms, alpha, i)
			total += len(items)
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				errs[slot] = c.VerifyShares(pw, items, rand.New(rand.NewSource(int64(slot))))
			}(round*len(alphas) + i)
		}
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Errorf("slot %d: %v", slot, err)
		}
	}
	if got := observed.Load(); got != int64(total) {
		t.Errorf("passes covered %d items, want %d", got, total)
	}
	assertIdle(t, c)
}

// assertIdle checks that every pass slot was given back and nothing is
// left queued.
func assertIdle(t *testing.T, c *Coalescer) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running != 0 || len(c.pending) != 0 {
		t.Errorf("coalescer not idle: %d slots held, %d requests queued", c.running, len(c.pending))
	}
}

// TestCoalescerLoneRequestOnePass: a request with no company verifies
// at once in exactly one pass covering only its own items, and gives
// its slot back.
func TestCoalescerLoneRequestOnePass(t *testing.T) {
	g, jobs, powers := receiverJobs(t)
	var sizes []int
	c := NewCoalescer(g, 0, func(n int) { sizes = append(sizes, n) })
	if err := c.VerifyShares(powers[2], jobs[2], rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 1 || sizes[0] != len(jobs[2]) {
		t.Errorf("passes = %v, want exactly one of %d items", sizes, len(jobs[2]))
	}
	assertIdle(t, c)
}

// TestCoalescerArrivalsDuringPassFormNextBatch pins the smart-batching
// rule with two pass slots: requests that arrive while both slots are
// busy queue, and when ONE pass finishes its slot's hand-off verifies
// all of them together in exactly one pass, each with its own verdict.
func TestCoalescerArrivalsDuringPassFormNextBatch(t *testing.T) {
	g, jobs, powers := receiverJobs(t)
	const corrupt, guilty = 5, 2
	corruptShares(jobs[corrupt], guilty)

	var mu sync.Mutex
	var sizes []int
	plugs := 0
	parked := make(chan struct{}, 2)
	unpark := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	c := NewCoalescer(g, 0, func(n int) {
		mu.Lock()
		if plugs < len(unpark) {
			i := plugs
			plugs++
			mu.Unlock()
			parked <- struct{}{}
			<-unpark[i]
			return
		}
		sizes = append(sizes, n)
		mu.Unlock()
	})
	c.slots = 2

	var plugWG, wg sync.WaitGroup
	for i := range unpark {
		plugWG.Add(1)
		go func(i int) {
			defer plugWG.Done()
			_ = c.VerifyShares(powers[i], jobs[i], rand.New(rand.NewSource(int64(50+i))))
		}(i)
		<-parked
	}
	errs := make([]error, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.VerifyShares(powers[i], jobs[i], rand.New(rand.NewSource(int64(100+i))))
		}(i)
	}
	waitPending(t, c, len(jobs))
	close(unpark[0])
	wg.Wait() // every arrival is answered while the other slot stays parked

	mu.Lock()
	got := append([]int(nil), sizes...)
	mu.Unlock()
	wantItems := 0
	for _, j := range jobs {
		wantItems += len(j)
	}
	if len(got) != 1 || got[0] != wantItems {
		t.Errorf("arrivals ran in passes %v, want one pass of %d items", got, wantItems)
	}
	for i, err := range errs {
		if i == corrupt {
			var verr *VerifyError
			if !errors.As(err, &verr) || verr.Sender != guilty {
				t.Errorf("corrupt job %d: error = %v, want *VerifyError for sender %d", i, err, guilty)
			}
			continue
		}
		if err != nil {
			t.Errorf("honest job %d failed: %v", i, err)
		}
	}
	close(unpark[1])
	plugWG.Wait()
	assertIdle(t, c)
}
