package main

import (
	"math"
	"slices"
	"time"
)

// inf is the latency of a request that failed: shed, refused while
// draining, errored, or answered wrongly. It sorts above every real
// latency, so failures count as missing any limit in every percentile.
const inf = time.Duration(math.MaxInt64)

// quantile returns the nearest-rank q-quantile of xs (sorted in place)
// and whether it is finite.
func quantile(xs []time.Duration, q float64) (time.Duration, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	i = max(0, min(i, len(xs)-1))
	return xs[i], xs[i] != inf
}

// ms and us convert a duration to float milliseconds / microseconds; an
// infinite latency becomes the largest float JSON can carry.
func ms(d time.Duration) float64 {
	if d == inf {
		return math.MaxFloat64
	}
	return float64(d) / 1e6
}

func us(d time.Duration) float64 {
	if d == inf {
		return math.MaxFloat64
	}
	return float64(d) / 1e3
}

// median of float samples (sorted in place); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
