package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie above a reported
// percentile: with fewer, one outlier more or less moves the figure.
const minBeyond = 10

// rank is the 0-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	return max(0, int(math.Ceil(q*float64(n)))-1)
}

// tail returns the q-quantile of xs when enough samples lie beyond it,
// and otherwise the highest quantile that has minBeyond samples beyond
// it, together with the quantile actually reported. It fails only when
// xs has too few samples for any such quantile.
func tail(xs []float64, q float64) (v, used float64, err error) {
	n := len(xs)
	if n < minBeyond+1 {
		return 0, 0, fmt.Errorf("tail: %d samples, need at least %d", n, minBeyond+1)
	}
	k := min(rank(n, q), n-1-minBeyond)
	used = q
	if k < rank(n, q) {
		used = float64(k+1) / float64(n)
	}
	return sortedCopy(xs)[k], used, nil
}

// median is the 0.5-quantile without the tail rule: it needs only one
// sample, and reports 0 for none (a layer that did no work).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[(len(s)-1)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// backlogGrows reports whether a backlog series (outstanding jobs,
// sampled at even intervals over a step) grows rather than fluctuating
// around a level. It fits a least-squares line and flags a slope that,
// held over the whole step, adds more than maxAdd jobs.
func backlogGrows(series []float64, maxAdd float64) bool {
	n := len(series)
	if n < 3 {
		return false
	}
	var sx, sy, sxx, sxy float64
	for i, y := range series {
		x := float64(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return false
	}
	slopePerSample := (fn*sxy - sx*sy) / den
	added := slopePerSample * float64(n-1)
	return added > maxAdd
}
