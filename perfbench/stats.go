package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (q in (0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hasTail reports whether q leaves at least ten samples beyond it, the
// rule for reporting a percentile at all.
func hasTail(n int, q float64) bool { return float64(n)*(1-q) >= 10-1e-9 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
