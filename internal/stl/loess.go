// Package stl implements Seasonal-Trend decomposition using LOESS (STL,
// Cleveland et al. 1990) together with the "naive" moving-average seasonal
// decomposition the paper compares against (§2.5). Both decompose an
// active-address time series into trend + seasonal + residual; the paper
// adopts STL because it is more robust to outliers.
//
// # The LOESS kernel
//
// A decomposition is eight LOESS smoothings (four low-pass, four trend,
// with the pipeline's one robustness pass) of n points with ≈ 190
// neighbours each, and they are nearly all of its cost. Degree 1, the
// only degree the pipeline uses, runs one kernel (loessInto) built on
// three observations; degrees 0 and 2, and the cycle-subseries fits with
// their out-of-range extrapolations, stay with the one-shot loessFitAt.
//
// Rows, not per-point windows. With an integer bandwidth a window's
// tricube weights depend only on the window length q, the bandwidth dmax
// and the point's offset in its window — never on the data. For a series
// at least span long every interior point therefore shares one row of
// weights, the left-edge point i (window [0, q), dmax = q-1-i) has a row
// that depends on the span alone, and the right-edge point n-1-i has the
// same bandwidth and the same distances in reverse: its row is the mirror
// image. A Workspace caches the span/2+1 rows of each span it meets in
// one flat slice (rowTable: 273 kB for the pipeline's spans 169 and 193
// together, at most maxRowTables spans). A series shorter than the span has
// Cleveland's inflated, fractional bandwidths; its rows are filled inline.
// Wherever a row comes from, it goes through the same accumulation
// (fitRow): the five sums of the one-shot fit,
//
//	s0 += w    t0 += w*y    s1 += w*x    t1 += (w*y)*x    s2 += w*(x*x)
//
// over the row's non-zero support in ascending neighbour order, with one
// accumulator per sum and output point. Nothing is reassociated and every
// product keeps its shape — s2 += w*(x*x), never (w*x)*x — so each sum
// sees the operands, the order and the roundings of the per-point fit,
// and a compiler that fuses multiply-adds fuses both alike.
//
// Hoisting. When rho is nil or every weight is exactly 1 (w*1.0 == w; one
// O(n) scan per call) s0, s1 and s2 do not depend on the data. That is
// six of the eight smoothings. They are then accumulated once per row, in
// the same order, and the interior points only accumulate t0 and t1.
//
// Interleaving. Each sum is a chain of dependent additions, so one point
// alone runs at the latency of a floating-point add. Interior points
// share their row, so the hoisted case evaluates three adjacent points
// per pass over it (dataSums3): six independent chains, enough to run at
// the adders' throughput instead.
//
// Vector width. On amd64 CPUs with AVX (and an OS that saves the YMM
// registers; checked once at init) the interior loops run two assembly
// kernels instead (loess_amd64.s): weightedSumsVec accumulates fitRow's
// five sums and dataSumsVec dataSums3's t0 and t1, each for vecPoints
// adjacent points per pass over their shared row. A SIMD lane is an
// output point, never a neighbour: lane p runs fitRow's statements for
// point p in fitRow's order and grouping, so each lane rounds as the
// scalar loop does. (Which of two NaN operands survives, Go leaves
// unspecified; the kernels order operands as a default build of fitRow
// does, but a -race build orders them otherwise, so the tests hold a NaN
// sum only to being NaN.) fitRow's skip of a
// weight wk <= 0 becomes the mask !(wk <= 0) ANDed into every term (not
// into wk: 0*Inf is NaN); a NaN weight fails wk <= 0 and stays in, as in
// fitRow. A skipped term thus adds +0, which changes no accumulator: each
// starts at +0, and a sum that starts at +0 is never -0. The kernels use
// separate multiplies and adds, never a fused multiply-add, which would
// round once where fitRow rounds twice. Edge points, inflated spans and
// the fits of degree 0 and 2 stay scalar, and the scalar loops remain the
// only path on other CPUs and architectures.
//
// The implementation this replaced — a shared table for interior points,
// loessFitAt for every edge point — is kept verbatim in reference_test.go
// and the kernel is held to it bit for bit by differential tests, a
// fuzzer and paired benchmarks.
package stl

import (
	"fmt"
	"math"
)

// loessWindow picks the window [lo, lo+q) of the q nearest integer
// positions to at, and the kernel bandwidth dmax — shared by the one-shot
// and table-driven fits so both see identical windows.
func loessWindow(n, span int, at float64) (lo, q int, dmax float64) {
	q = span
	if q > n {
		q = n
	}
	lo = int(math.Round(at)) - q/2
	if lo < 0 {
		lo = 0
	}
	if lo+q > n {
		lo = n - q
	}
	// Slide the window to actually contain the q nearest points.
	for lo > 0 && at-float64(lo-1) < float64(lo+q-1)-at {
		lo--
	}
	for lo+q < n && float64(lo+q)-at < at-float64(lo) {
		lo++
	}
	dmax = math.Max(at-float64(lo), float64(lo+q-1)-at)
	if span > n {
		// Cleveland's span inflation: for q > n the bandwidth grows
		// proportionally, flattening the fit toward a global polynomial.
		dmax *= float64(span) / float64(n)
	}
	if dmax <= 0 {
		dmax = 1
	}
	return lo, q, dmax
}

// tricube is the LOESS kernel (1-u³)³ for a scaled distance 0 <= u < 1.
// It is the one place the weight is computed: the one-shot fit and the
// cached rows must round it alike.
func tricube(u float64) float64 {
	w := 1 - u*u*u
	return w * w * w
}

// loessFitAt evaluates a locally weighted polynomial regression of y
// (observed at integer positions 0..len(y)-1) at position at. span is the
// number of nearest neighbours included; degree is 0, 1 or 2. rho, when
// non-nil, holds per-point robustness weights multiplied into the tricube
// kernel. Positions outside [0, len(y)-1] extrapolate from the nearest
// span points, which STL uses to extend cycle-subseries by one period on
// each side.
func loessFitAt(y []float64, rho []float64, span, degree int, at float64) float64 {
	n := len(y)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return y[0]
	}
	if span < 2 {
		span = 2
	}
	lo, q, dmax := loessWindow(n, span, at)

	// Weighted least squares of the chosen degree via normal equations.
	var s [5]float64 // sums of w * x^k, k = 0..4
	var t [3]float64 // sums of w * y * x^k, k = 0..2
	for j := lo; j < lo+q; j++ {
		u := math.Abs(float64(j)-at) / dmax
		if u >= 1 {
			continue
		}
		w := tricube(u)
		if rho != nil {
			w *= rho[j]
		}
		if w <= 0 {
			continue
		}
		x := float64(j) - at // center on the evaluation point
		xp := 1.0
		for k := 0; k <= 2*degree; k++ {
			s[k] += w * xp
			if k <= degree {
				t[k] += w * y[j] * xp
			}
			xp *= x
		}
	}
	return solveLocalFit(y, lo, q, degree, &s, &t)
}

// solveLocalFit turns the accumulated normal-equation sums into the fitted
// value at the (centered) evaluation point.
func solveLocalFit(y []float64, lo, q, degree int, s *[5]float64, t *[3]float64) float64 {
	if s[0] == 0 {
		// All weights vanished (can happen when robustness weights zero out
		// the whole window); fall back to the unweighted window mean.
		sum := 0.0
		for j := lo; j < lo+q; j++ {
			sum += y[j]
		}
		return sum / float64(q)
	}
	switch degree {
	case 0:
		return t[0] / s[0]
	case 1:
		det := s[0]*s[2] - s[1]*s[1]
		if det == 0 {
			return t[0] / s[0]
		}
		// Since x is centered at the evaluation point, the intercept is
		// the fitted value.
		return (t[0]*s[2] - t[1]*s[1]) / det
	case 2:
		a, b, c := s[0], s[1], s[2]
		d, e, f := s[1], s[2], s[3]
		g, h, i := s[2], s[3], s[4]
		det := a*(e*i-f*h) - b*(d*i-f*g) + c*(d*h-e*g)
		if det == 0 {
			return t[0] / s[0]
		}
		// Cramer's rule for the intercept coefficient only.
		det0 := t[0]*(e*i-f*h) - b*(t[1]*i-f*t[2]) + c*(t[1]*h-e*t[2])
		return det0 / det
	default:
		panic(fmt.Sprintf("stl: unsupported loess degree %d", degree))
	}
}

// loessInto fills dst (len(y)) with the LOESS smoothing of y. Degrees 0
// and 2 evaluate every point with the one-shot fit. Degree 1 — the only
// degree the pipeline uses — runs the row kernel described in the package
// comment: every point is evaluated from a row of tricube weights, and
// the three kinds of point differ only in where their row comes from.
func (ws *Workspace) loessInto(dst, y []float64, span, degree int, rho []float64) {
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
	if degree != 1 {
		for i := range y {
			dst[i] = loessFitAt(y, rho, span, degree, float64(i))
		}
		return
	}
	if allOnes(rho) {
		rho = nil
	}
	if span > n {
		// Cleveland's span inflation: every point has the window [0, n)
		// and a fractional bandwidth of its own, so its row is filled
		// inline.
		buf := resize(&ws.row, n+rampLen(n))
		row, ramp := buf[:n], buf[n:]
		fillRamp(ramp)
		for i := range y {
			_, _, dmax := loessWindow(n, span, float64(i))
			fillRow(row, i, dmax)
			dst[i] = fitPoint(row, ramp, i, 0, y, rho)
		}
		return
	}

	q, h := span, span/2
	t := ws.rowTable(span)
	ramp := t.ramp()
	// Left edge: window [0, q), the point i positions into it.
	for i := 0; i < h; i++ {
		dst[i] = fitPoint(t.row(i), ramp, i, 0, y, rho)
	}
	// Right edge: window [n-q, n), the point e positions from its end —
	// the same bandwidth and the same distances as left-edge point e, in
	// reverse.
	mirror := t.mirror()
	for i := n - q + h + 1; i < n; i++ {
		e := n - 1 - i
		for k, w := range t.row(e) {
			mirror[q-1-k] = w
		}
		dst[i] = fitPoint(mirror, ramp, q-1-e, n-q, y, rho)
	}
	// Interior: window [i-h, i-h+q), one row for all. Point i's support
	// starts at y[i-h+k0].
	row := t.row(h)
	i, last := h, n-q+h
	k0, k1 := support(row)
	w, xs := row[k0:k1], positions(ramp, h, k0, k1)
	var v vecSums
	if rho == nil {
		// Without robustness weights s0, s1 and s2 are the row's alone:
		// the first point's serve every later one, which accumulates
		// only t0 and t1, vecPoints or three adjacent points per pass
		// over the row.
		f := fitRow(w, xs, y[i-h+k0:i-h+k1], nil)
		dst[i] = f.fit(y, i-h, q)
		i++
		for ; vectorRows && i+vecPoints-1 <= last; i += vecPoints {
			dataSumsVec(w, xs, y[i-h+k0:i-h+k1+vecPoints-1], &v)
			for p := range v.t0 {
				f.t0, f.t1 = v.t0[p], v.t1[p]
				dst[i+p] = f.fit(y, i+p-h, q)
			}
		}
		for ; i+2 <= last; i += 3 {
			t0, t1 := dataSums3(w, xs, y[i-h+k0:i-h+k1+2])
			for p := range t0 {
				f.t0, f.t1 = t0[p], t1[p]
				dst[i+p] = f.fit(y, i+p-h, q)
			}
		}
	} else if vectorRows {
		for ; i+vecPoints-1 <= last; i += vecPoints {
			lo, hi := i-h+k0, i-h+k1+vecPoints-1
			weightedSumsVec(w, xs, y[lo:hi], rho[lo:hi], &v)
			for p := range v.s0 {
				f := sums{v.s0[p], v.s1[p], v.s2[p], v.t0[p], v.t1[p]}
				dst[i+p] = f.fit(y, i+p-h, q)
			}
		}
	}
	for ; i <= last; i++ {
		dst[i] = fitPoint(row, ramp, h, i-h, y, rho)
	}
}

// allOnes reports whether every robustness weight is exactly 1 (or there
// are none): w*1.0 == w, so such weights change no bit and can be dropped.
func allOnes(rho []float64) bool {
	for _, r := range rho {
		if r != 1 {
			return false
		}
	}
	return true
}

// fillRow writes the tricube weights of a window of len(row) points for
// the point off positions into it, with bandwidth dmax: what loessFitAt
// computes for that window, zero where it skips a neighbour.
func fillRow(row []float64, off int, dmax float64) {
	for k := range row {
		row[k] = 0
		if u := math.Abs(float64(k-off)) / dmax; u < 1 {
			row[k] = tricube(u)
		}
	}
}

// A ramp holds float64(d) for every distance d between two points of one
// window of q points, centred: ramp[q-1+d] == float64(d), |d| < q.
func rampLen(q int) int { return 2*q - 1 }

func fillRamp(ramp []float64) {
	c := len(ramp) / 2
	for m := range ramp {
		ramp[m] = float64(m - c)
	}
}

// positions returns the centred neighbour positions float64(k-off) for
// k in [k0, k1).
func positions(ramp []float64, off, k0, k1 int) []float64 {
	c := len(ramp) / 2
	return ramp[c-off+k0 : c-off+k1]
}

// maxRowTables bounds the spans a Workspace caches rows for; a
// decomposition smooths with two (low-pass and trend).
const maxRowTables = 4

// rowTable holds what the kernel derives from a span alone, for series at
// least that long, in one allocation: span/2+1 rows of span weights, one
// scratch row for a mirrored copy, and the span's ramp. Row r serves the
// point r positions into a window of span points whose bandwidth is the
// distance to the window's farther end — the left-edge points for
// r < span/2, the interior for r = span/2.
type rowTable struct {
	span int
	buf  []float64
}

// The layout of buf: rows() weight rows, the mirror row, the ramp.
func (t *rowTable) rows() int           { return t.span/2 + 1 }
func (t *rowTable) row(r int) []float64 { return t.buf[r*t.span : (r+1)*t.span] }
func (t *rowTable) mirror() []float64   { return t.row(t.rows()) }
func (t *rowTable) ramp() []float64     { return t.buf[(t.rows()+1)*t.span:] }

// rowTable returns the cached table of span, filling it on first use. At
// most maxRowTables spans stay cached; the oldest is overwritten.
func (ws *Workspace) rowTable(span int) *rowTable {
	for i := range ws.tables {
		if ws.tables[i].span == span {
			return &ws.tables[i]
		}
	}
	t := &ws.tables[ws.nextTable]
	ws.nextTable = (ws.nextTable + 1) % maxRowTables
	t.span = span
	resize(&t.buf, (t.rows()+1)*span+rampLen(span))
	for r := 0; r < t.rows(); r++ {
		fillRow(t.row(r), r, float64(max(r, span-1-r)))
	}
	fillRamp(t.ramp())
	return t
}

// support returns the range [k0, k1) of row outside which the weights
// are zero. The tricube vanishes only at distance >= dmax, so the zeros
// sit at the ends; the point itself has weight 1, so the range is never
// empty. The one-shot fit skips zero-weight neighbours; trimming them
// keeps a NaN or an infinity there out of the sums just the same.
func support(row []float64) (k0, k1 int) {
	k1 = len(row)
	for row[k0] == 0 {
		k0++
	}
	for row[k1-1] == 0 {
		k1--
	}
	return k0, k1
}

// sums are the normal-equation sums of one degree-1 local fit.
type sums struct{ s0, s1, s2, t0, t1 float64 }

// fit solves the local line for its value at the evaluation point; lo and
// q are the point's full window, which the all-weights-zero fallback
// averages.
func (m sums) fit(y []float64, lo, q int) float64 {
	s := [5]float64{m.s0, m.s1, m.s2}
	t := [3]float64{m.t0, m.t1}
	return solveLocalFit(y, lo, q, 1, &s, &t)
}

// fitPoint evaluates the point off positions into the window
// [lo, lo+len(row)) from its row.
func fitPoint(row, ramp []float64, off, lo int, y, rho []float64) float64 {
	k0, k1 := support(row)
	if rho != nil {
		rho = rho[lo+k0 : lo+k1]
	}
	return fitRow(row[k0:k1], positions(ramp, off, k0, k1), y[lo+k0:lo+k1], rho).fit(y, lo, len(row))
}

// fitRow accumulates the sums of one point over its row's support: w the
// tricube weights, xs the neighbours' centred positions, y and rho (nil:
// none) the neighbours' values and robustness weights. This is the
// accumulation scheme, and its statements must keep their shape — the
// products' grouping, one accumulator per sum, ascending k — or the output
// stops being bit-identical to the reference; dataSums3 is the same loop
// with the data-independent sums left out.
func fitRow(w, xs, y, rho []float64) sums {
	xs, y = xs[:len(w)], y[:len(w)]
	var s0, s1, s2, t0, t1 float64
	for k, wk := range w {
		if rho != nil {
			wk *= rho[k]
			if wk <= 0 {
				continue
			}
		}
		x := xs[k]
		wy := wk * y[k]
		s0 += wk
		t0 += wy
		s1 += wk * x
		t1 += wy * x
		s2 += wk * (x * x)
	}
	return sums{s0, s1, s2, t0, t1}
}

// dataSums3 accumulates t0 and t1 of three adjacent points that share the
// row w and have no robustness weights: point p's neighbours are
// y[p : p+len(w)]. Each sum is a chain of dependent additions, so one
// point alone runs at the latency of an add; six independent chains, each
// adding fitRow's terms in fitRow's order, run at its throughput. (Three
// points, not four: with eight accumulators and their products live, Go
// 1.24's amd64 register allocator keeps one accumulator on the stack, and
// that chain through memory costs more than the fourth point saves —
// 0.83 against 0.66 ns per point and neighbour on the development host.
// Two points with robustness weights, ten chains, spill likewise and
// measured slower than fitRow alone, so weighted points are not
// interleaved.)
func dataSums3(w, xs, y []float64) (t0, t1 [3]float64) {
	m := len(w)
	xs = xs[:m]
	ya, yb, yc := y[:m], y[1:m+1], y[2:m+2]
	var a0, a1, b0, b1, c0, c1 float64
	for k, wk := range w {
		x := xs[k]
		wy := wk * ya[k]
		a0 += wy
		a1 += wy * x
		wy = wk * yb[k]
		b0 += wy
		b1 += wy * x
		wy = wk * yc[k]
		c0 += wy
		c1 += wy * x
	}
	return [3]float64{a0, b0, c0}, [3]float64{a1, b1, c1}
}

// vecPoints is how many adjacent interior points one pass of a vector
// kernel evaluates: two YMM registers of four lanes per sum. The hoisted
// kernel then runs four chains of additions per sum instead of two, and
// the weighted one loads each weight and position once for eight points;
// four points per pass measured slower in both (BenchmarkLoessInto on a
// 2-CPU 2.1 GHz Xeon, best of six alternating runs: 0.50 against 0.37 ns
// a pair hoisted, 0.91 against 0.80 weighted).
const vecPoints = 8

// vecSums are the sums of vecPoints adjacent points, entry p for point p.
type vecSums struct{ s0, t0, s1, t1, s2 [vecPoints]float64 }

// vectorRows selects the vector kernels (weightedSumsVec, dataSumsVec)
// for loessInto's interior loops. It is set once, from the CPU; the tests
// switch it to hold both kernels to the oracle.
var vectorRows = haveVectorRows()

// movingAverage returns the simple moving average of y with window m; the
// result has len(y)-m+1 points.
func movingAverage(y []float64, m int) []float64 {
	n := len(y)
	if m <= 0 || m > n {
		return nil
	}
	out := make([]float64, n-m+1)
	movingAverageFill(out, y, m)
	return out
}

// movingAverageInto is movingAverage writing into *buf, reusing capacity.
func movingAverageInto(buf *[]float64, y []float64, m int) []float64 {
	n := len(y)
	if m <= 0 || m > n {
		return nil
	}
	out := resize(buf, n-m+1)
	movingAverageFill(out, y, m)
	return out
}

func movingAverageFill(out, y []float64, m int) {
	n := len(y)
	sum := 0.0
	for i := 0; i < m; i++ {
		sum += y[i]
	}
	out[0] = sum / float64(m)
	for i := m; i < n; i++ {
		sum += y[i] - y[i-m]
		out[i-m+1] = sum / float64(m)
	}
}

// nextOdd returns the smallest odd integer >= v (and >= 3).
func nextOdd(v float64) int {
	n := int(math.Ceil(v))
	if n < 3 {
		n = 3
	}
	if n%2 == 0 {
		n++
	}
	return n
}
