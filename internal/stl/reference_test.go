package stl

// The test oracle: the loessInto that shipped before the row kernel,
// verbatim (only its tricube table moved from the Workspace to the
// wrapper below), and the decomposition wired to it. Both exist only so
// the differential tests, the fuzzer and the benchmarks in this package
// can hold the kernel to the arithmetic it replaced, bit for bit.

// referenceWorkspace is a Workspace whose LOESS smoothings run the
// reference implementation.
type referenceWorkspace struct {
	Workspace
	tricube []float64 // interior tricube weight table
}

// loessIntoReference fills dst (len(y)) with the LOESS smoothing of y.
// Interior points — where the window is centered and the bandwidth is
// the common interior dmax — share one precomputed tricube weight table
// and a degree-specialized accumulation loop; edge points (and degrees
// other than 1) fall back to the general one-shot fit.
func (ws *referenceWorkspace) loessIntoReference(dst, y []float64, span, degree int, rho []float64) {
	n := len(y)
	if n == 0 {
		return
	}
	if n == 1 {
		dst[0] = y[0]
		return
	}
	if span < 2 {
		span = 2
	}
	// The table covers the bandwidth of a mid-series point; every point
	// whose window computation lands on the same dmax can use it.
	_, _, tabDmax := loessWindow(n, span, float64(n/2))
	var tab []float64
	if degree == 1 {
		nd := int(tabDmax) + 1
		if nd > 0 && nd <= n+1 {
			tab = resize(&ws.tricube, nd)
			for d := 0; d < nd; d++ {
				u := float64(d) / tabDmax
				if u >= 1 {
					tab[d] = 0
					continue
				}
				w := 1 - u*u*u
				tab[d] = w * w * w
			}
		}
	}
	for i := 0; i < n; i++ {
		at := float64(i)
		lo, q, dmax := loessWindow(n, span, at)
		if tab == nil || dmax != tabDmax || float64(int(dmax)) != dmax {
			dst[i] = loessFitAt(y, rho, span, degree, at)
			continue
		}
		// Fast path: degree-1 fit with table-driven tricube weights. The
		// accumulation mirrors the generic power loop term by term:
		// s0 += w*1, t0 += (w*y)*1, s1 += w*x, t1 += (w*y)*x, s2 += w*(x*x).
		var s0, s1, s2, t0, t1 float64
		for j := lo; j < lo+q; j++ {
			d := j - i
			if d < 0 {
				d = -d
			}
			w := tab[d]
			if w == 0 {
				continue
			}
			if rho != nil {
				w *= rho[j]
				if w <= 0 {
					continue
				}
			}
			x := float64(j - i)
			wy := w * y[j]
			s0 += w
			t0 += wy
			s1 += w * x
			t1 += wy * x
			s2 += w * (x * x)
		}
		s := [5]float64{s0, s1, s2}
		t := [3]float64{t0, t1}
		dst[i] = solveLocalFit(y, lo, q, 1, &s, &t)
	}
}

// decomposeIntoReference is DecomposeInto's loop with both LOESS
// smoothings (low-pass and trend) routed to loessIntoReference. Options
// must be complete and valid: it applies no defaults.
func (ws *referenceWorkspace) decomposeIntoReference(res *Result, y []float64, opts Opts) {
	n, np := len(y), opts.Period
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
			for i := range y {
				detrended[i] = y[i] - trend[i]
			}
			var c []float64
			if opts.Periodic {
				c = ws.cycleSubseriesPeriodic(detrended, rho, np)
			} else {
				c = ws.cycleSubseriesSmooth(detrended, rho, np, opts.Seasonal, opts.SeasonalDeg)
			}
			ma1 := movingAverageInto(&ws.ma1, c, np)
			ma2 := movingAverageInto(&ws.ma2, ma1, np)
			ma3 := movingAverageInto(&ws.ma3, ma2, 3)
			l := resize(&ws.lp, len(ma3))
			ws.loessIntoReference(l, ma3, opts.Lowpass, opts.LowpassDeg, nil)
			for i := 0; i < n; i++ {
				seasonal[i] = c[i+np] - l[i]
			}
			for i := range y {
				deseason[i] = y[i] - seasonal[i]
			}
			tr := resize(&ws.tr, n)
			ws.loessIntoReference(tr, deseason, opts.Trend, opts.TrendDeg, rho)
			copy(trend, tr)
		}
		if outer >= opts.Outer {
			break
		}
		ws.updateRobustnessWeights(y, trend, seasonal, rho)
	}
	res.Trend = setSlice(res.Trend, trend)
	res.Seasonal = setSlice(res.Seasonal, seasonal)
	res.Weights = setSlice(res.Weights, rho)
	res.Resid = resize(&res.Resid, n)
	for i := range y {
		res.Resid[i] = y[i] - trend[i] - seasonal[i]
	}
}
