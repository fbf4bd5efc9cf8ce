package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear interpolation
// between order statistics (the "exclusive of neither end" R-7 rule, the one
// numpy and most benchmark tools default to). xs is not modified. An empty
// input yields 0: callers print the sample count beside every percentile, so
// an n=0 reading is visible for what it is.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartileSpread is the A/A noise measure the builder contract uses: the
// distance between the first and third quartile as a share of the median,
// with the quartiles of Python's statistics.quantiles(values, n=4) — the
// "exclusive" method, position k(n+1)/4 in the sorted sample — so the
// numbers -aa prints are the numbers the driver will compute.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// opsPerSecond is operations per pass over the median pass time: the median
// discards a pass that caught a scheduler hiccup, which total ÷ total would
// fold into the throughput.
func opsPerSecond(opsPerPass int, passSeconds []float64) float64 {
	m := median(passSeconds)
	if m == 0 {
		return 0
	}
	return float64(opsPerPass) / m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
