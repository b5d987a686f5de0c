package stl

import (
	"fmt"
	"math"
	"sort"
)

// Opts configures an STL decomposition. The zero value is not usable; use
// DefaultOpts(period) and override fields as needed.
type Opts struct {
	// Period is the number of samples per seasonal cycle (e.g. 24 for
	// hourly samples with a daily cycle). Must be >= 2.
	Period int
	// Seasonal is the LOESS span for cycle-subseries smoothing (odd, >= 7).
	Seasonal int
	// Trend is the LOESS span for trend smoothing (odd). When zero it
	// defaults to the smallest odd integer >= 1.5*Period/(1-1.5/Seasonal).
	Trend int
	// Lowpass is the LOESS span of the low-pass filter (odd). When zero it
	// defaults to the smallest odd integer >= Period.
	Lowpass int
	// SeasonalDeg, TrendDeg, LowpassDeg are the local polynomial degrees
	// (defaulting to 1, 1, 1).
	SeasonalDeg, TrendDeg, LowpassDeg int
	// Periodic forces the seasonal component to an identical cycle shape
	// across the whole series (the robustness-weighted mean of each
	// phase's subseries) instead of a slowly evolving one. Level changes
	// then fall entirely to the trend — the behaviour visible in the
	// paper's Figure 1b, where the seasonal keeps oscillating at full
	// amplitude after the WFH drop while the trend falls.
	Periodic bool
	// Inner is the number of inner-loop passes (default 2).
	Inner int
	// Outer is the number of robustness (outer) iterations (default 1;
	// use 0 to disable robustness weighting entirely).
	Outer int
}

// DefaultOpts returns the standard STL parameterization for the given
// period, matching the conventions of Cleveland et al. and the statsmodels
// implementation the paper used.
func DefaultOpts(period int) Opts {
	o := Opts{
		Period:      period,
		Seasonal:    7,
		SeasonalDeg: 1,
		TrendDeg:    1,
		LowpassDeg:  1,
		Inner:       2,
		Outer:       1,
	}
	o.Trend = nextOdd(1.5 * float64(period) / (1 - 1.5/float64(o.Seasonal)))
	o.Lowpass = nextOdd(float64(period))
	return o
}

// Result holds an additive decomposition y = Trend + Seasonal + Resid.
type Result struct {
	Trend    []float64
	Seasonal []float64
	Resid    []float64
	// Weights holds the final robustness weights (all 1 when Outer == 0).
	Weights []float64
}

// Workspace holds every scratch buffer an STL decomposition needs, so a
// worker that decomposes many series of the same length reuses its
// detrended/deseasonalized/extension/weight buffers across inner and outer
// iterations — and across calls — instead of reallocating them. It also
// caches what the LOESS kernel derives from a span alone: the rows of
// tricube weights of the last few spans smoothed with (≈ 140 kB per span
// of ≈ 180; see loess.go). The zero value is ready to use; buffers grow on
// demand and stick around. A Workspace is not safe for concurrent use:
// give each goroutine its own (the pipeline does, via core.Scratch).
type Workspace struct {
	trend, seasonal, rho []float64
	detrended, deseason  []float64
	c                    []float64 // extended cycle-subseries, n + 2*period
	ma1, ma2, ma3        []float64 // low-pass moving-average chain
	lp                   []float64 // low-pass LOESS output
	tr                   []float64 // trend LOESS output
	sub, subRho          []float64 // one phase's cycle subseries
	absResid, sortBuf    []float64 // robustness-weight intermediates

	// The LOESS row kernel's state (loess.go).
	tables    [maxRowTables]rowTable // cached rows, one table per span
	nextTable int                    // slot the next uncached span overwrites
	row       []float64              // inline row and ramp of a series shorter than its span
}

// Decompose runs STL on y. It returns an error when the series is shorter
// than two full periods or the options are invalid. The one-shot form
// allocates a throwaway Workspace; hot paths should hold a Workspace and
// call its Decompose or DecomposeInto methods.
func Decompose(y []float64, opts Opts) (*Result, error) {
	var ws Workspace
	return ws.Decompose(y, opts)
}

// Decompose is the workspace form of the package-level Decompose: scratch
// buffers come from ws, and the returned Result holds freshly allocated
// slices the caller may retain.
func (ws *Workspace) Decompose(y []float64, opts Opts) (*Result, error) {
	res := &Result{}
	if err := ws.DecomposeInto(res, y, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// DecomposeInto decomposes y into res, reusing both ws's scratch buffers
// and res's existing slice capacity; a caller that recycles the same
// Result allocates nothing in steady state. The result is bit-identical to
// the package-level Decompose.
func (ws *Workspace) DecomposeInto(res *Result, y []float64, opts Opts) error {
	n := len(y)
	if opts.Period < 2 {
		return fmt.Errorf("stl: period %d < 2", opts.Period)
	}
	if n < 2*opts.Period {
		return fmt.Errorf("stl: series of %d samples shorter than two periods (%d)", n, 2*opts.Period)
	}
	if opts.Seasonal == 0 {
		opts.Seasonal = 7
	}
	if opts.Seasonal < 3 || opts.Seasonal%2 == 0 {
		return fmt.Errorf("stl: seasonal span %d must be odd and >= 3", opts.Seasonal)
	}
	if opts.Trend == 0 {
		opts.Trend = nextOdd(1.5 * float64(opts.Period) / (1 - 1.5/float64(opts.Seasonal)))
	}
	if opts.Lowpass == 0 {
		opts.Lowpass = nextOdd(float64(opts.Period))
	}
	if opts.Inner <= 0 {
		opts.Inner = 2
	}
	if opts.Outer < 0 {
		return fmt.Errorf("stl: negative outer iterations")
	}
	if opts.SeasonalDeg < 0 || opts.SeasonalDeg > 2 ||
		opts.TrendDeg < 0 || opts.TrendDeg > 2 ||
		opts.LowpassDeg < 0 || opts.LowpassDeg > 2 {
		return fmt.Errorf("stl: loess degrees must be 0, 1 or 2")
	}

	np := opts.Period
	trend := resizeZero(&ws.trend, n)
	seasonal := resizeZero(&ws.seasonal, n)
	rho := resize(&ws.rho, n)
	for i := range rho {
		rho[i] = 1
	}
	detrended := resize(&ws.detrended, n)
	deseason := resize(&ws.deseason, n)

	for outer := 0; ; outer++ {
		for inner := 0; inner < opts.Inner; inner++ {
			// Step 1: detrend.
			for i := range y {
				detrended[i] = y[i] - trend[i]
			}
			// Step 2: cycle-subseries smoothing, extended one period on
			// each side (length n + 2*np).
			var c []float64
			if opts.Periodic {
				c = ws.cycleSubseriesPeriodic(detrended, rho, np)
			} else {
				c = ws.cycleSubseriesSmooth(detrended, rho, np, opts.Seasonal, opts.SeasonalDeg)
			}
			// Step 3: low-pass filtering of the smoothed cycle-subseries.
			l := ws.lowPass(c, np, opts.Lowpass, opts.LowpassDeg)
			// Step 4: seasonal = middle of C minus low-pass.
			for i := 0; i < n; i++ {
				seasonal[i] = c[i+np] - l[i]
			}
			// Step 5: deseasonalize.
			for i := range y {
				deseason[i] = y[i] - seasonal[i]
			}
			// Step 6: trend smoothing.
			tr := resize(&ws.tr, n)
			ws.loessInto(tr, deseason, opts.Trend, opts.TrendDeg, rho)
			copy(trend, tr)
		}
		if outer >= opts.Outer {
			break
		}
		// Robustness weights from the residuals (bisquare).
		ws.updateRobustnessWeights(y, trend, seasonal, rho)
	}

	res.Trend = setSlice(res.Trend, trend)
	res.Seasonal = setSlice(res.Seasonal, seasonal)
	res.Weights = setSlice(res.Weights, rho)
	res.Resid = resize(&res.Resid, n)
	for i := range y {
		res.Resid[i] = y[i] - trend[i] - seasonal[i]
	}
	return nil
}

// cycleSubseriesSmooth smooths each phase's subseries with LOESS and
// extends it by one period on each side, returning a series of length
// len(y) + 2*period (backed by ws.c).
func (ws *Workspace) cycleSubseriesSmooth(y, rho []float64, period, span, degree int) []float64 {
	n := len(y)
	out := resizeZero(&ws.c, n+2*period)
	sub := ws.sub[:0]
	subRho := ws.subRho[:0]
	for phase := 0; phase < period; phase++ {
		sub = sub[:0]
		subRho = subRho[:0]
		for i := phase; i < n; i += period {
			sub = append(sub, y[i])
			subRho = append(subRho, rho[i])
		}
		m := len(sub)
		// Fitted values at subseries positions -1 .. m (m+2 values): the
		// extensions provide the pre- and post-period padding.
		for k := -1; k <= m; k++ {
			v := loessFitAt(sub, subRho, span, degree, float64(k))
			pos := phase + (k+1)*period
			if pos >= 0 && pos < len(out) {
				out[pos] = v
			}
		}
	}
	ws.sub, ws.subRho = sub, subRho
	return out
}

// cycleSubseriesPeriodic replaces each phase's subseries with its
// robustness-weighted mean, extended one period on each side — the
// "periodic" seasonal option. The result is backed by ws.c.
func (ws *Workspace) cycleSubseriesPeriodic(y, rho []float64, period int) []float64 {
	n := len(y)
	out := resizeZero(&ws.c, n+2*period)
	for phase := 0; phase < period; phase++ {
		var sum, wsum float64
		for i := phase; i < n; i += period {
			w := rho[i]
			sum += w * y[i]
			wsum += w
		}
		var mean float64
		if wsum > 0 {
			mean = sum / wsum
		} else {
			// All weights zeroed (an outlier dragged the whole phase's
			// residuals): fall back to the subseries median, which the
			// outlier cannot drag.
			vals := ws.sub[:0]
			for i := phase; i < n; i += period {
				vals = append(vals, y[i])
			}
			if len(vals) > 0 {
				sort.Float64s(vals)
				mean = vals[len(vals)/2]
			}
			ws.sub = vals
		}
		for pos := phase; pos < len(out); pos += period {
			out[pos] = mean
		}
	}
	return out
}

// lowPass applies STL's low-pass filter to the extended cycle-subseries c
// (length n+2*period): two moving averages of length period, one of length
// 3, then a LOESS smoothing with the given span. The result has length
// len(c) - 2*period and is backed by ws.lp.
func (ws *Workspace) lowPass(c []float64, period, span, degree int) []float64 {
	ma1 := movingAverageInto(&ws.ma1, c, period)   // len: n+period+1
	ma2 := movingAverageInto(&ws.ma2, ma1, period) // len: n+2
	ma3 := movingAverageInto(&ws.ma3, ma2, 3)      // len: n
	lp := resize(&ws.lp, len(ma3))
	ws.loessInto(lp, ma3, span, degree, nil)
	return lp
}

// updateRobustnessWeights recomputes rho in place using the bisquare
// function of |residual| scaled by six times the median absolute residual.
func (ws *Workspace) updateRobustnessWeights(y, trend, seasonal, rho []float64) {
	n := len(y)
	absResid := resize(&ws.absResid, n)
	for i := range y {
		absResid[i] = math.Abs(y[i] - trend[i] - seasonal[i])
	}
	sorted := resize(&ws.sortBuf, n)
	copy(sorted, absResid)
	sort.Float64s(sorted)
	var med float64
	if n%2 == 1 {
		med = sorted[n/2]
	} else {
		med = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	h := 6 * med
	if h <= 0 {
		for i := range rho {
			rho[i] = 1
		}
		return
	}
	for i := range rho {
		u := absResid[i] / h
		if u >= 1 {
			rho[i] = 0
			continue
		}
		w := 1 - u*u
		rho[i] = w * w
	}
}

// resize returns *buf with length n, reusing capacity; contents are
// unspecified.
func resize(buf *[]float64, n int) []float64 {
	if cap(*buf) >= n {
		*buf = (*buf)[:n]
	} else {
		*buf = make([]float64, n)
	}
	return *buf
}

// resizeZero returns *buf with length n and every element zeroed, matching
// the freshly allocated slices the pre-workspace code used.
func resizeZero(buf *[]float64, n int) []float64 {
	b := resize(buf, n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// setSlice copies src into dst, reusing dst's capacity.
func setSlice(dst, src []float64) []float64 {
	if cap(dst) >= len(src) {
		dst = dst[:len(src)]
	} else {
		dst = make([]float64, len(src))
	}
	copy(dst, src)
	return dst
}

// NaiveDecompose implements the classical moving-average seasonal
// decomposition ("naive" seasonality model, paper §2.5): the trend is a
// centered moving average over one period, the seasonal component is the
// per-phase mean of the detrended series (re-centered to sum to zero), and
// the residual is the remainder. It is cheaper than STL but sensitive to
// outliers, which is why the paper adopts STL.
func NaiveDecompose(y []float64, period int) (*Result, error) {
	n := len(y)
	if period < 2 {
		return nil, fmt.Errorf("stl: period %d < 2", period)
	}
	if n < 2*period {
		return nil, fmt.Errorf("stl: series of %d samples shorter than two periods (%d)", n, 2*period)
	}
	trend := make([]float64, n)
	// Centered moving average; for even periods use the standard 2xMA.
	half := period / 2
	var ma []float64
	if period%2 == 1 {
		ma = movingAverage(y, period)
	} else {
		ma = movingAverage(movingAverage(y, period), 2)
	}
	for i := range ma {
		trend[i+half] = ma[i]
	}
	// Extend the trend flat at the edges.
	for i := 0; i < half; i++ {
		trend[i] = trend[half]
	}
	for i := half + len(ma); i < n; i++ {
		trend[i] = trend[half+len(ma)-1]
	}

	// Per-phase means of the detrended series.
	phaseSum := make([]float64, period)
	phaseCount := make([]int, period)
	for i := range y {
		phaseSum[i%period] += y[i] - trend[i]
		phaseCount[i%period]++
	}
	phaseMean := make([]float64, period)
	total := 0.0
	for p := range phaseMean {
		if phaseCount[p] > 0 {
			phaseMean[p] = phaseSum[p] / float64(phaseCount[p])
		}
		total += phaseMean[p]
	}
	center := total / float64(period)
	for p := range phaseMean {
		phaseMean[p] -= center
	}

	res := &Result{
		Trend:    trend,
		Seasonal: make([]float64, n),
		Resid:    make([]float64, n),
		Weights:  make([]float64, n),
	}
	for i := range y {
		res.Seasonal[i] = phaseMean[i%period]
		res.Resid[i] = y[i] - trend[i] - res.Seasonal[i]
		res.Weights[i] = 1
	}
	return res, nil
}
