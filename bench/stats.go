package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// quantile is the nearest-rank q-quantile of ascending samples: the
// smallest sample with at least q·n samples at or below it. It is always
// one of the samples, so no quantile can exceed the maximum.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(len(sorted), q)-1]
}

// nearestRank is the 1-based nearest-rank position of the q-quantile of n.
func nearestRank(n int, q float64) int {
	// The epsilon keeps binary rounding (0.9·100 = 90.00000000000001)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyond counts the samples above the q-quantile's rank position.
func beyond(n int, q float64) int { return n - nearestRank(n, q) }

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported at all.
const minBeyond = 10

// median is the middle of the samples (mean of the two middles when n
// is even); it sorts its argument.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

// dist summarizes one latency population with the sample count.
type dist struct {
	N   int                `json:"n"`
	Max float64            `json:"max"`
	Pct map[string]float64 `json:"percentiles"` // only those with minBeyond samples beyond
}

var reportedPcts = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

func summarize(v []float64) dist {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	d := dist{N: len(s), Pct: map[string]float64{}}
	if len(s) == 0 {
		return d
	}
	d.Max = s[len(s)-1]
	for _, q := range reportedPcts {
		if q == 0.5 || beyond(len(s), q) >= minBeyond {
			d.Pct[pctName(q)] = quantile(s, q)
		}
	}
	return d
}

// pctName renders 0.99 as "p99" and 0.999 as "p99.9".
func pctName(q float64) string {
	return "p" + strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.1f", q*100), "0"), ".")
}
