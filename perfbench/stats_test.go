package main

import (
	"math/rand"
	"testing"
)

// TestTailKeepsTenBeyond checks, over many sample counts and
// quantiles, that tail never reports a value with fewer than ten
// samples above it.
func TestTailKeepsTenBeyond(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 3000; n += 1 + n/20 {
		// Distinct samples 0..n-1 in random order: the value is its rank.
		xs := make([]float64, n)
		for i, v := range rng.Perm(n) {
			xs[i] = float64(v)
		}
		for _, q := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 0.9999} {
			v, used, err := tail(xs, q)
			if err != nil {
				if n > minBeyond {
					t.Fatalf("tail(n=%d, q=%g): %v", n, q, err)
				}
				continue
			}
			if used > q {
				t.Fatalf("tail(n=%d, q=%g) reported p%g", n, q, used*100)
			}
			if beyond := n - 1 - int(v); beyond < minBeyond {
				t.Fatalf("tail(n=%d, q=%g) = %g (p%g) with %d beyond", n, q, v, used*100, beyond)
			}
		}
	}
}

func TestTailLowersThinQuantile(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
	}
	// p99 of 500 samples would have 5 beyond it.
	v, used, err := tail(xs, 0.99)
	if err != nil || used >= 0.99 || v != 489 {
		t.Fatalf("tail = %g at p%g, %v; want 489 (ten beyond) below p99", v, used*100, err)
	}
	if v, used, err := tail(xs, 0.5); err != nil || used != 0.5 || v != 249 {
		t.Fatalf("p50 = %g at p%g, %v; want 249", v, used*100, err)
	}
	if _, _, err := tail(xs[:minBeyond], 0.5); err == nil {
		t.Fatalf("tail of %d samples: want an error", minBeyond)
	}
}

func TestBacklogGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	noise := func() float64 { return rng.Float64() * 20 }
	var growing, flat, burst []float64
	for i := 0; i < 30; i++ {
		// 5% overload of 300 jobs/s sampled every 100 ms: +1.5 jobs
		// a sample, 45 over the step.
		growing = append(growing, 5+1.5*float64(i)+noise())
		flat = append(flat, 5+noise())
		b := 5 + noise()
		if i >= 12 && i < 15 {
			b += 60 // a stall that drains again
		}
		burst = append(burst, b)
	}
	if !backlogGrows(growing, 30) {
		t.Error("growing backlog not flagged")
	}
	if backlogGrows(flat, 30) {
		t.Error("flat noisy backlog flagged")
	}
	if backlogGrows(burst, 30) {
		t.Error("a backlog that drains after a stall flagged")
	}
	if backlogGrows([]float64{1, 100}, 30) {
		t.Error("two samples are no trend")
	}
}
