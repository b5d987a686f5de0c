package stl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Loess smooths y with locally weighted regression through a fresh
// Workspace, returning the fitted value at every position. span is the
// neighbourhood size in points and degree the local polynomial degree (0,
// 1 or 2). rho may be nil.
func Loess(y []float64, span, degree int, rho []float64) []float64 {
	var ws Workspace
	out := make([]float64, len(y))
	ws.loessInto(out, y, span, degree, rho)
	return out
}

// synth builds days*period samples of trend + daily sinusoid + noise.
func synth(days, period int, trendSlope, seasonalAmp, noiseSD float64, seed int64) (y, trueTrend, trueSeasonal []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := days * period
	y = make([]float64, n)
	trueTrend = make([]float64, n)
	trueSeasonal = make([]float64, n)
	for i := 0; i < n; i++ {
		trueTrend[i] = 10 + trendSlope*float64(i)
		trueSeasonal[i] = seasonalAmp * math.Sin(2*math.Pi*float64(i%period)/float64(period))
		y[i] = trueTrend[i] + trueSeasonal[i] + noiseSD*rng.NormFloat64()
	}
	return y, trueTrend, trueSeasonal
}

func rmse(a, b []float64, skip int) float64 {
	s := 0.0
	n := 0
	for i := skip; i < len(a)-skip; i++ {
		d := a[i] - b[i]
		s += d * d
		n++
	}
	return math.Sqrt(s / float64(n))
}

func TestLoessConstant(t *testing.T) {
	y := []float64{5, 5, 5, 5, 5, 5, 5}
	for _, deg := range []int{0, 1, 2} {
		for i, v := range Loess(y, 5, deg, nil) {
			if math.Abs(v-5) > 1e-9 {
				t.Fatalf("deg %d idx %d: %g, want 5", deg, i, v)
			}
		}
	}
}

func TestLoessLinearExact(t *testing.T) {
	// Degree-1 LOESS reproduces a straight line exactly.
	n := 50
	y := make([]float64, n)
	for i := range y {
		y[i] = 3 + 2*float64(i)
	}
	for i, v := range Loess(y, 11, 1, nil) {
		if math.Abs(v-y[i]) > 1e-8 {
			t.Fatalf("idx %d: %g, want %g", i, v, y[i])
		}
	}
}

func TestLoessQuadraticExactDeg2(t *testing.T) {
	n := 60
	y := make([]float64, n)
	for i := range y {
		x := float64(i)
		y[i] = 1 + 0.5*x + 0.02*x*x
	}
	for i, v := range Loess(y, 15, 2, nil) {
		if math.Abs(v-y[i]) > 1e-6 {
			t.Fatalf("idx %d: %g, want %g", i, v, y[i])
		}
	}
}

func TestLoessSmoothsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 200
	y := make([]float64, n)
	for i := range y {
		y[i] = 10 + rng.NormFloat64()
	}
	sm := Loess(y, 41, 1, nil)
	varIn, varOut := 0.0, 0.0
	for i := range y {
		varIn += (y[i] - 10) * (y[i] - 10)
		varOut += (sm[i] - 10) * (sm[i] - 10)
	}
	if varOut >= varIn/4 {
		t.Fatalf("smoothing did not reduce variance enough: in=%g out=%g", varIn, varOut)
	}
}

func TestLoessRobustnessWeightsZeroOutOutlier(t *testing.T) {
	// Giving an outlier zero rho weight should pull the fit back to the
	// underlying line.
	n := 21
	y := make([]float64, n)
	rho := make([]float64, n)
	for i := range y {
		y[i] = float64(i)
		rho[i] = 1
	}
	y[10] = 1000
	plain := loessFitAt(y, nil, 7, 1, 10)
	rho[10] = 0
	robust := loessFitAt(y, rho, 7, 1, 10)
	if math.Abs(robust-10) > 0.5 {
		t.Fatalf("robust fit at outlier = %g, want ~10", robust)
	}
	if plain < 100 {
		t.Fatalf("plain fit should be dragged by outlier, got %g", plain)
	}
}

func TestLoessExtrapolation(t *testing.T) {
	// Extrapolating a line one step beyond each end stays on the line.
	n := 10
	y := make([]float64, n)
	for i := range y {
		y[i] = 2 * float64(i)
	}
	if v := loessFitAt(y, nil, 5, 1, -1); math.Abs(v-(-2)) > 1e-8 {
		t.Fatalf("left extrapolation = %g, want -2", v)
	}
	if v := loessFitAt(y, nil, 5, 1, float64(n)); math.Abs(v-20) > 1e-8 {
		t.Fatalf("right extrapolation = %g, want 20", v)
	}
}

func TestLoessSingleAndEmpty(t *testing.T) {
	if v := loessFitAt([]float64{7}, nil, 5, 1, 0); v != 7 {
		t.Fatalf("single point fit = %g", v)
	}
	if v := loessFitAt(nil, nil, 5, 1, 0); v != 0 {
		t.Fatalf("empty fit = %g", v)
	}
}

func TestLoessAllWeightsZeroFallback(t *testing.T) {
	y := []float64{1, 2, 3, 4, 5}
	rho := []float64{0, 0, 0, 0, 0}
	v := loessFitAt(y, rho, 5, 1, 2)
	if math.Abs(v-3) > 1e-9 {
		t.Fatalf("fallback fit = %g, want window mean 3", v)
	}
}

func TestMovingAverage(t *testing.T) {
	y := []float64{1, 2, 3, 4, 5}
	got := movingAverage(y, 3)
	want := []float64{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("len=%d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ma[%d]=%g, want %g", i, got[i], want[i])
		}
	}
	if movingAverage(y, 6) != nil || movingAverage(y, 0) != nil {
		t.Fatal("out-of-range windows should return nil")
	}
}

func TestNextOdd(t *testing.T) {
	cases := []struct {
		in   float64
		want int
	}{{1, 3}, {3, 3}, {3.1, 5}, {4, 5}, {7, 7}, {7.5, 9}}
	for _, c := range cases {
		if got := nextOdd(c.in); got != c.want {
			t.Errorf("nextOdd(%g)=%d, want %d", c.in, got, c.want)
		}
	}
}

func TestDecomposeAdditiveIdentity(t *testing.T) {
	// Property: trend + seasonal + resid reconstructs the input exactly.
	f := func(seed int64) bool {
		y, _, _ := synth(8, 24, 0.01, 5, 1, seed)
		res, err := Decompose(y, DefaultOpts(24))
		if err != nil {
			return false
		}
		for i := range y {
			if math.Abs(res.Trend[i]+res.Seasonal[i]+res.Resid[i]-y[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestDecomposeRecoversTrendAndSeason(t *testing.T) {
	y, trueTrend, trueSeasonal := synth(21, 24, 0.02, 8, 0.5, 9)
	res, err := Decompose(y, DefaultOpts(24))
	if err != nil {
		t.Fatal(err)
	}
	if e := rmse(res.Trend, trueTrend, 24); e > 1.0 {
		t.Errorf("trend RMSE = %g, want <= 1.0", e)
	}
	if e := rmse(res.Seasonal, trueSeasonal, 24); e > 1.0 {
		t.Errorf("seasonal RMSE = %g, want <= 1.0", e)
	}
}

func TestDecomposeLevelShiftFollowed(t *testing.T) {
	// A mid-series level drop (the WFH signature) must appear in the
	// trend component within a few days.
	period := 24
	days := 28
	n := days * period
	y := make([]float64, n)
	for i := range y {
		base := 20.0
		if i >= n/2 {
			base = 8.0
		}
		y[i] = base + 6*math.Sin(2*math.Pi*float64(i%period)/float64(period))
	}
	res, err := Decompose(y, DefaultOpts(period))
	if err != nil {
		t.Fatal(err)
	}
	early := res.Trend[n/4]
	late := res.Trend[3*n/4]
	if early-late < 8 {
		t.Fatalf("trend drop = %g, want >= 8 (early=%g late=%g)", early-late, early, late)
	}
}

func TestDecomposeSeasonalDisappearance(t *testing.T) {
	// When the diurnal swing disappears mid-series the trend must move
	// toward the new flat level rather than keep oscillating.
	period := 24
	days := 28
	n := days * period
	y := make([]float64, n)
	for i := range y {
		if i < n/2 {
			y[i] = 12 + 10*math.Max(0, math.Sin(2*math.Pi*float64(i%period)/float64(period)))
		} else {
			y[i] = 12
		}
	}
	res, err := Decompose(y, DefaultOpts(period))
	if err != nil {
		t.Fatal(err)
	}
	// Mean absolute residual should stay moderate, and the late trend
	// should be near 12.
	if math.Abs(res.Trend[7*n/8]-12) > 2 {
		t.Fatalf("late trend = %g, want ~12", res.Trend[7*n/8])
	}
}

func TestDecomposeRobustToOutliers(t *testing.T) {
	// With robustness iterations, isolated spikes should perturb the
	// trend less than without them.
	y, trueTrend, _ := synth(21, 24, 0, 5, 0.3, 13)
	rng := rand.New(rand.NewSource(14))
	for k := 0; k < 10; k++ {
		y[rng.Intn(len(y))] += 80
	}
	optsRobust := DefaultOpts(24)
	optsRobust.Outer = 2
	optsPlain := DefaultOpts(24)
	optsPlain.Outer = 0
	robust, err := Decompose(y, optsRobust)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Decompose(y, optsPlain)
	if err != nil {
		t.Fatal(err)
	}
	eR := rmse(robust.Trend, trueTrend, 24)
	eP := rmse(plain.Trend, trueTrend, 24)
	if eR >= eP {
		t.Fatalf("robust trend RMSE %g should beat plain %g", eR, eP)
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(make([]float64, 10), Opts{Period: 1}); err == nil {
		t.Error("expected error for period < 2")
	}
	if _, err := Decompose(make([]float64, 10), Opts{Period: 24}); err == nil {
		t.Error("expected error for too-short series")
	}
	o := DefaultOpts(24)
	o.Seasonal = 8
	if _, err := Decompose(make([]float64, 96), o); err == nil {
		t.Error("expected error for even seasonal span")
	}
	o = DefaultOpts(24)
	o.Outer = -1
	if _, err := Decompose(make([]float64, 96), o); err == nil {
		t.Error("expected error for negative outer")
	}
	o = DefaultOpts(24)
	o.TrendDeg = 3
	if _, err := Decompose(make([]float64, 96), o); err == nil {
		t.Error("expected error for degree 3")
	}
}

func TestNaiveDecomposeIdentityAndShape(t *testing.T) {
	y, trueTrend, trueSeasonal := synth(14, 24, 0.02, 8, 0.3, 21)
	res, err := NaiveDecompose(y, 24)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if math.Abs(res.Trend[i]+res.Seasonal[i]+res.Resid[i]-y[i]) > 1e-9 {
			t.Fatalf("identity violated at %d", i)
		}
	}
	if e := rmse(res.Trend, trueTrend, 24); e > 1.0 {
		t.Errorf("naive trend RMSE = %g", e)
	}
	if e := rmse(res.Seasonal, trueSeasonal, 24); e > 1.5 {
		t.Errorf("naive seasonal RMSE = %g", e)
	}
}

func TestNaiveDecomposeSeasonalSumsToZero(t *testing.T) {
	y, _, _ := synth(14, 24, 0, 5, 1, 22)
	res, err := NaiveDecompose(y, 24)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for p := 0; p < 24; p++ {
		sum += res.Seasonal[p]
	}
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("seasonal period sum = %g, want 0", sum)
	}
}

func TestNaiveDecomposeErrors(t *testing.T) {
	if _, err := NaiveDecompose(make([]float64, 10), 1); err == nil {
		t.Error("expected error for period < 2")
	}
	if _, err := NaiveDecompose(make([]float64, 10), 24); err == nil {
		t.Error("expected error for short series")
	}
}

func TestNaiveVsSTLOutlierSensitivity(t *testing.T) {
	// The paper adopts STL over the naive model because it is "more
	// robust to outliers" — verify that claim holds in this
	// implementation.
	y, trueTrend, _ := synth(21, 24, 0, 5, 0.3, 31)
	rng := rand.New(rand.NewSource(32))
	for k := 0; k < 15; k++ {
		y[rng.Intn(len(y))] += 60
	}
	opts := DefaultOpts(24)
	opts.Outer = 2
	stlRes, err := Decompose(y, opts)
	if err != nil {
		t.Fatal(err)
	}
	naiveRes, err := NaiveDecompose(y, 24)
	if err != nil {
		t.Fatal(err)
	}
	eSTL := rmse(stlRes.Trend, trueTrend, 24)
	eNaive := rmse(naiveRes.Trend, trueTrend, 24)
	if eSTL >= eNaive {
		t.Fatalf("STL trend RMSE %g should beat naive %g under outliers", eSTL, eNaive)
	}
}

func BenchmarkDecomposeMonthHourly(b *testing.B) {
	y, _, _ := synth(28, 24, 0.01, 6, 0.5, 41)
	opts := DefaultOpts(24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(y, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveDecomposeMonthHourly(b *testing.B) {
	y, _, _ := synth(28, 24, 0.01, 6, 0.5, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NaiveDecompose(y, 24); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPeriodicSeasonalConstantShape(t *testing.T) {
	// With Periodic set, the seasonal component repeats the same cycle
	// everywhere, even when the signal's amplitude halves mid-series.
	period := 24
	n := 28 * period
	y := make([]float64, n)
	for i := range y {
		amp := 10.0
		if i >= n/2 {
			amp = 0 // diurnal pattern disappears (the WFH signature)
		}
		// One-sided daytime bump (mean amp/2), like work-hours activity.
		bump := math.Max(0, math.Sin(2*math.Pi*float64(i%period)/float64(period)))
		y[i] = 10 + amp*bump
	}
	opts := DefaultOpts(period)
	opts.Periodic = true
	res, err := Decompose(y, opts)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < period; p++ {
		first := res.Seasonal[p+period]
		last := res.Seasonal[p+(n/period-2)*period]
		if math.Abs(first-last) > 1e-6 {
			t.Fatalf("periodic seasonal differs across cycles at phase %d: %g vs %g", p, first, last)
		}
	}
	// The level change (mean 10+10/pi -> 10) must land in the trend.
	if res.Trend[n/4]-res.Trend[3*n/4] < 2 {
		t.Fatalf("periodic trend = %.1f / %.1f, want a clear drop", res.Trend[n/4], res.Trend[3*n/4])
	}
}

func TestPeriodicSharperStepThanAdaptive(t *testing.T) {
	// The periodic seasonal pushes a level change entirely into the
	// trend, so the transition is narrower than with the adaptive
	// seasonal — the property core relies on for CUSUM detection.
	period := 24 * 7
	n := 8 * period
	y := make([]float64, n)
	for i := range y {
		v := 4.0
		hour := i % 24
		day := (i / 24) % 7
		if i < n/2 && hour >= 9 && hour < 17 && day >= 1 && day <= 5 {
			v = 20
		}
		y[i] = v
	}
	width := func(periodic bool) int {
		opts := DefaultOpts(period)
		opts.Periodic = periodic
		opts.Trend = period + 25
		res, err := Decompose(y, opts)
		if err != nil {
			t.Fatal(err)
		}
		hi, lo := res.Trend[n/4], res.Trend[7*n/8]
		upper := lo + 0.9*(hi-lo)
		lower := lo + 0.1*(hi-lo)
		first, last := -1, -1
		for i, v := range res.Trend {
			if first < 0 && v < upper && i > n/4 {
				first = i
			}
			if v > lower && i > n/4 {
				last = i
			}
		}
		return last - first
	}
	if wp, wa := width(true), width(false); wp > wa {
		t.Fatalf("periodic transition (%d samples) should be no wider than adaptive (%d)", wp, wa)
	}
}

func TestPeriodicRobustnessWeightsApplied(t *testing.T) {
	// An outlier should not drag the periodic seasonal means when
	// robustness iterations run.
	period := 24
	n := 21 * period
	y := make([]float64, n)
	for i := range y {
		y[i] = 10 + 5*math.Sin(2*math.Pi*float64(i%period)/float64(period))
	}
	y[10*period+3] += 500
	opts := DefaultOpts(period)
	opts.Periodic = true
	opts.Outer = 2
	res, err := Decompose(y, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Seasonal at the outlier's phase should stay near its true value.
	truth := 5 * math.Sin(2*math.Pi*3/float64(period))
	if got := res.Seasonal[period+3]; math.Abs(got-truth) > 1.0 {
		t.Fatalf("outlier dragged periodic seasonal: %g vs %g", got, truth)
	}
}
