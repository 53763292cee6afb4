package commit

import (
	"errors"
	"io"
	"math/big"
	"runtime"
	"sync"

	"dmw/internal/group"
)

// This file implements the fleet-wide verifier tier: coalescing share
// verifications from CONCURRENT receivers — across auctions and across
// jobs on the same group — into one combined random-linear-combination
// pass. Within a job, the n receivers of a round verify nearly
// simultaneously (rounds are barrier-synchronized), and a loaded worker
// pool runs many such jobs at once; each combined pass replaces up to
// maxTerms worth of independent Commit + MultiExp evaluations with one.
//
// Soundness is inherited from BatchVerifyShares: every item draws fresh
// independent coefficients from its own request's rng, so the combined
// identity is exactly the single-batch identity over the concatenated
// item list (different receivers' alphaPowers merely parameterize their
// own items' exponents), and a cheating sender escapes with probability
// ~2^-64 regardless of how many requests share the pass.
//
// Attribution is NOT weakened by coalescing: when a combined pass
// fails, every member request is re-verified independently via
// BatchVerifyShares, which falls back to per-sender checks — so the
// guilty agent is named by its own receiver and honest jobs in the same
// pass see nil, exactly as if they had never shared a batch. The
// wrong-job-blamed failure mode is pinned by TestCoalescerGuiltyJobIsolation.

// DefaultMaxBatchTerms caps one combined MultiExp so a pathological
// pileup cannot build an unbounded exponent table.
const DefaultMaxBatchTerms = 4096

// Coalescer aggregates share-verification requests from concurrent
// goroutines into combined passes by smart batching: it never waits for
// company. An arrival starts a pass at once when fewer than slots passes
// are running; otherwise it queues. A finishing pass hands its slot to
// the head of the queue, which drains everything queued by then as the
// next combined pass. Batches therefore grow with load, and an idle
// caller pays nothing beyond its own verification. There is no resident
// goroutine and no timer: queued callers park on their reply channels
// and passes run on the callers' goroutines. A Coalescer is safe for
// concurrent use and needs no shutdown.
type Coalescer struct {
	g        *group.Group
	maxTerms int
	slots    int             // passes allowed in flight (GOMAXPROCS at construction)
	observe  func(items int) // per combined pass: coalesced item count

	mu      sync.Mutex
	running int // slots held by passes, including ones handed off but not yet drained
	pending []*pendingReq
}

type pendingReq struct {
	req  Request
	done chan error // the verdict, or errSlot when the caller inherits a slot
}

// errSlot is sent on a queued request's channel instead of a verdict to
// hand it a finishing pass's slot.
var errSlot = errors.New("commit: coalescer slot handoff")

// NewCoalescer builds a coalescer over g. maxTerms <= 0 selects
// DefaultMaxBatchTerms; observe (optional) is called once per combined
// pass with the number of share items it covered, for the
// dmwd_verify_batch_size histogram. Up to runtime.GOMAXPROCS(0) passes
// run at once, so verification still uses every core while batches form.
func NewCoalescer(g *group.Group, maxTerms int, observe func(items int)) *Coalescer {
	if maxTerms <= 0 {
		maxTerms = DefaultMaxBatchTerms
	}
	return &Coalescer{g: g, maxTerms: maxTerms, slots: runtime.GOMAXPROCS(0), observe: observe}
}

// Group returns the group every request must have been built over.
func (c *Coalescer) Group() *group.Group { return c.g }

// VerifyShares is the coalescing equivalent of BatchVerifyShares: same
// arguments, same results (nil acceptance, *VerifyError attribution,
// first-failure semantics), but the combined pass may span other
// goroutines' concurrent requests. A caller that finds a free slot
// verifies at once; otherwise it waits for a running pass to finish and
// then joins the next one. rng, when non-nil, must not be used by the
// caller until the call returns (the pass runner draws this request's
// coefficients from it).
func (c *Coalescer) VerifyShares(alphaPowers []*big.Int, items []BatchItem, rng io.Reader) error {
	if len(items) == 0 {
		return nil
	}
	req := Request{AlphaPowers: alphaPowers, Items: items, Rng: rng}
	// Structural failures are attributed immediately and never join a
	// combined pass.
	if verr := req.validate(); verr != nil {
		return verr
	}
	c.mu.Lock()
	if c.running < c.slots {
		// A free slot means nothing is queued (requests queue only
		// while every slot is held), so this is a solo pass: plain
		// BatchVerifyShares, with no pending record to allocate.
		c.running++
		c.mu.Unlock()
		if c.observe != nil {
			c.observe(len(items))
		}
		err := BatchVerifyShares(c.g, alphaPowers, items, rng)
		c.release()
		return err
	}
	p := &pendingReq{req: req, done: make(chan error, 1)}
	c.pending = append(c.pending, p)
	c.mu.Unlock()
	if err := <-p.done; err != errSlot {
		return err
	}
	// This request inherited a slot: verify it together with everything
	// that queued behind it.
	c.mu.Lock()
	batch := append([]*pendingReq{p}, c.pending...)
	c.pending = nil
	c.mu.Unlock()
	c.flush(batch)
	c.release()
	return <-p.done
}

// release ends a pass: it hands the slot to the head of the queue, or
// frees it when nothing is queued.
func (c *Coalescer) release() {
	c.mu.Lock()
	if len(c.pending) == 0 {
		c.running--
		c.mu.Unlock()
		return
	}
	next := c.pending[0]
	c.pending[0] = nil
	c.pending = c.pending[1:]
	c.mu.Unlock()
	next.done <- errSlot
}

// flush verifies a drained batch in maxTerms-bounded chunks. A single
// oversized request still runs (as its own chunk); the bound only stops
// chunks from growing past it.
func (c *Coalescer) flush(batch []*pendingReq) {
	for len(batch) > 0 {
		n := 1
		terms := batch[0].req.terms()
		for n < len(batch) && terms+batch[n].req.terms() <= c.maxTerms {
			terms += batch[n].req.terms()
			n++
		}
		c.verifyChunk(batch[:n])
		batch = batch[n:]
	}
}

func (c *Coalescer) verifyChunk(chunk []*pendingReq) {
	if c.observe != nil {
		items := 0
		for _, p := range chunk {
			items += len(p.req.Items)
		}
		c.observe(items)
	}
	if len(chunk) == 1 {
		p := chunk[0]
		p.done <- BatchVerifyShares(c.g, p.req.AlphaPowers, p.req.Items, p.req.Rng)
		return
	}
	reqs := make([]Request, len(chunk))
	for i, p := range chunk {
		reqs[i] = p.req
	}
	if ok, err := combinedCheck(c.g, reqs); ok && err == nil {
		for _, p := range chunk {
			p.done <- nil
		}
		return
	}
	// The combined pass rejected (some request holds a bad share) or a
	// request's rng failed mid-draw. Either way, re-verify every member
	// independently: honest jobs get nil, the guilty job gets its own
	// *VerifyError (or its rng error) — no cross-job blame.
	for _, p := range chunk {
		p.done <- BatchVerifyShares(c.g, p.req.AlphaPowers, p.req.Items, p.req.Rng)
	}
}
