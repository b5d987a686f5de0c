// Package stats provides the statistical primitives used throughout the
// reproduction: descriptive statistics, Pearson correlation, empirical
// CDFs, precision/recall scoring, and a logistic-regression model used to
// predict full-block-scan time from block features (paper §3.2.3).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x, or 0 when len(x) < 2.
func Variance(x []float64) float64 {
	n := len(x)
	if n < 2 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 {
	return math.Sqrt(Variance(x))
}

// Quantile returns the q-quantile (0 <= q <= 1) of x using linear
// interpolation between order statistics. It panics on empty input or an
// out-of-range q.
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile of x.
func Median(x []float64) float64 { return Quantile(x, 0.5) }

// Pearson returns the Pearson correlation coefficient of the paired series
// x and y. It returns 0 when either series is constant, and an error when
// the lengths differ or fewer than two pairs are given.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, fmt.Errorf("stats: need at least 2 pairs, got %d", len(x))
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// ZScore returns (x - mean) / stddev elementwise. A constant series maps to
// all zeros. This is the normalization the paper applies to the STL trend
// before CUSUM so that one parameter set fits every block (§2.6).
func ZScore(x []float64) []float64 {
	out := make([]float64, len(x))
	if len(x) == 0 {
		return out
	}
	m := Mean(x)
	sd := StdDev(x)
	if sd == 0 {
		return out
	}
	for i, v := range x {
		out[i] = (v - m) / sd
	}
	return out
}

// CDF is an empirical cumulative distribution function over observed values.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample x (which is copied).
func NewCDF(x []float64) *CDF {
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns the fraction of samples <= v, in [0, 1].
func (c *CDF) At(v float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Confusion tallies a binary classifier's outcomes.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one (predicted, actual) outcome.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Precision returns TP/(TP+FP), or 0 when no positives were predicted.
func (c *Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when there were no actual positives.
func (c *Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FalseNegativeRate returns FN/(TP+FN), or 0 with no actual positives.
func (c *Confusion) FalseNegativeRate() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.FN) / float64(c.TP+c.FN)
}

// String summarizes the confusion matrix and derived rates.
func (c *Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d precision=%.3f recall=%.3f",
		c.TP, c.FP, c.TN, c.FN, c.Precision(), c.Recall())
}
