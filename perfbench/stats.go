package main

import (
	"math"
	"sort"

	"repro/internal/load"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the tail is an anecdote, not a measurement.
const minBeyond = 10

// percentile is the nearest-rank q-quantile of xs. ok is false when fewer
// than minBeyond samples lie above the rank.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	if n-rank < minBeyond && q > 0.5 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// histQuantile is the q-quantile of h interpolated linearly inside the
// bucket that holds the rank. Histogram.Quantile reports the bucket's
// upper bound, which is exact to ~3% but moves in steps, so two runs can
// print the same figure while their latencies differ. ok is false when
// fewer than minBeyond samples lie above the rank.
func histQuantile(h *load.Histogram, q float64) (ns float64, ok bool) {
	n := h.Count()
	if n == 0 {
		return 0, false
	}
	rank := int64(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	if n-rank < minBeyond && q > 0.5 {
		return 0, false
	}
	var seen int64
	for _, b := range h.NonZeroBuckets() {
		c := int64(b.Count)
		if seen+c >= rank {
			lo := float64(0)
			if b.Index > 0 {
				lo = float64(load.BucketUpperBound(b.Index-1)) + 1
			}
			hi := float64(min(load.BucketUpperBound(b.Index), h.Max()))
			frac := (float64(rank-seen) - 0.5) / float64(c)
			return lo + frac*(hi-lo), true
		}
		seen += c
	}
	return float64(h.Max()), true
}
