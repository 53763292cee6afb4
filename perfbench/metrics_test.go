package main

import (
	"testing"

	"dmw/internal/obs"
)

func TestSelfTimes(t *testing.T) {
	spans := []obs.Span{
		{ID: 1, Name: "auction", StartUS: 0, DurUS: 1000},
		// Overlapping children cover [100, 700) of the parent: 600 µs.
		{ID: 2, Parent: 1, Name: "commit_verify", StartUS: 100, DurUS: 400},
		{ID: 3, Parent: 1, Name: "disclosure", StartUS: 300, DurUS: 400},
		{ID: 4, Parent: 1, Name: "disclosure", StartUS: 900, DurUS: 300}, // clipped at 1000
	}
	got := selfTimes(spans)
	want := map[string]float64{"auction": 0.3, "commit_verify": 0.4, "disclosure": 0.7}
	for name, w := range want {
		if d := got[name] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("self time of %s = %g ms, want %g", name, got[name], w)
		}
	}
}
