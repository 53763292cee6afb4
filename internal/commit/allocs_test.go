package commit

import (
	"math/big"
	"math/rand"
	"testing"

	"dmw/internal/group"
)

// batchVerifyBudget is the allocs/op cap on BatchVerifyShares at the
// stress shape (7 senders, sigma = 32, 672 multi-exp terms).
//
// Measured: 26 allocs/op after the pooled-scratch work (montWS arena,
// rlcAcc slabs, the SetBits exponent trick); the same path allocated
// 3767/op before it. The budget is 150 — loose enough to survive
// toolchain drift, tight enough that reintroducing ANY per-term
// allocation (one new(big.Int) per term is +672) fails immediately.
const batchVerifyBudget = 150

// soloOverhead is what a lone Coalescer.VerifyShares may allocate on
// top of BatchVerifyShares. A free slot runs BatchVerifyShares directly
// and builds no pending record or reply channel (those cost 3 allocs:
// the record, the channel and its buffer), so the overhead is nil.
const soloOverhead = 0

// stressShape builds the stress shape: one receiver's shares from the
// 7 other agents of an 8-agent run with sigma = 32.
func stressShape(tb testing.TB, preset string) (*group.Group, []*big.Int, []BatchItem) {
	tb.Helper()
	g := group.MustNew(group.MustPreset(preset))
	const n, sigma = 8, 32
	rng := rand.New(rand.NewSource(5))
	items := make([]BatchItem, 0, n-1)
	for k := 1; k < n; k++ {
		enc := syntheticBid(g, sigma, rng)
		c, err := New(g, enc, sigma)
		if err != nil {
			tb.Fatal(err)
		}
		items = append(items, BatchItem{Sender: k, C: c, S: enc.ShareFor(big.NewInt(9))})
	}
	return g, PowersOf(g.Scalars(), big.NewInt(9), sigma), items
}

// measureAllocs reports verify's steady-state allocs/op. One warm-up
// call fills the sync.Pool workspaces first, so first-use growth is
// not measured.
func measureAllocs(t *testing.T, verify func() error) float64 {
	t.Helper()
	if err := verify(); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(20, func() {
		if err := verify(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetBatchVerify is the CI allocation gate on the
// share-verification hot path (`make allocs-gate`): BatchVerifyShares
// at the stress shape must stay within batchVerifyBudget.
func TestAllocBudgetBatchVerify(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	g, pw, items := stressShape(t, group.PresetTest64)
	coeffRng := rand.New(rand.NewSource(7))
	avg := measureAllocs(t, func() error { return BatchVerifyShares(g, pw, items, coeffRng) })
	t.Logf("BatchVerifyShares: %.1f allocs/op (budget %d)", avg, batchVerifyBudget)
	if avg > batchVerifyBudget {
		t.Errorf("BatchVerifyShares allocates %.1f/op, budget %d — a pooled path regressed", avg, batchVerifyBudget)
	}
}

// TestAllocBudgetCoalescerSolo gates the coalescer's solo path, which
// is every verification on an idle replica: a lone request must cost
// no more than BatchVerifyShares plus soloOverhead.
func TestAllocBudgetCoalescerSolo(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	g, pw, items := stressShape(t, group.PresetTest64)
	coeffRng := rand.New(rand.NewSource(7))
	batch := measureAllocs(t, func() error { return BatchVerifyShares(g, pw, items, coeffRng) })
	c := NewCoalescer(g, 0, nil)
	solo := measureAllocs(t, func() error { return c.VerifyShares(pw, items, coeffRng) })
	t.Logf("Coalescer.VerifyShares solo: %.1f allocs/op (BatchVerifyShares %.1f, budget %d)",
		solo, batch, batchVerifyBudget+soloOverhead)
	if solo > batchVerifyBudget+soloOverhead {
		t.Errorf("solo Coalescer.VerifyShares allocates %.1f/op, budget %d", solo, batchVerifyBudget+soloOverhead)
	}
	if solo-batch > soloOverhead {
		t.Errorf("solo Coalescer.VerifyShares allocates %.1f/op over BatchVerifyShares, want <= %d", solo-batch, soloOverhead)
	}
}
