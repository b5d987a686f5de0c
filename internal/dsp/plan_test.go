package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// randSeries returns a deterministic pseudo-random real series with a
// diurnal component, so spectral statistics exercise non-trivial paths.
func randSeries(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = 40 + 12*math.Sin(2*math.Pi*float64(i)/24) + rng.NormFloat64()
	}
	return x
}

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// TestPlanMatchesNaiveDFT checks Plan.Transform against the O(n^2)
// reference across the length classes the pipeline sees: trivial, prime
// (Bluestein), power of two, and composite non-power-of-two.
func TestPlanMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 131, 360, 1024} {
		x := randComplex(n, int64(n))
		want := naiveDFT(x)
		got := make([]complex128, n)
		NewPlan(n).Transform(got, x)
		if err := maxErr(got, want); err > 1e-7 {
			t.Errorf("n=%d: max error %g vs naive DFT", n, err)
		}
	}
}

// TestPlanMatchesNaiveDFTSampledLarge validates a 11760-point transform
// (a 98-day hourly series, the pipeline's largest routine length) on a
// sample of bins — the full O(n^2) reference would dominate the test run.
func TestPlanMatchesNaiveDFTSampledLarge(t *testing.T) {
	const n = 11760
	x := randComplex(n, 11760)
	got := make([]complex128, n)
	NewPlan(n).Transform(got, x)
	norm := 0.0
	for _, v := range x {
		norm += cmplx.Abs(v)
	}
	for k := 0; k < n; k += 233 { // ~50 bins, coprime stride
		var want complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			want += x[j] * cmplx.Rect(1, ang)
		}
		if d := cmplx.Abs(got[k] - want); d > 1e-9*norm {
			t.Errorf("bin %d: |got-want| = %g (norm %g)", k, d, norm)
		}
	}
}

// TestPlanReuseBitIdentical checks that a warm plan reproduces its first
// transform bit for bit, and leaves the input untouched — the determinism
// contract the checkpoint fingerprints rely on.
func TestPlanReuseBitIdentical(t *testing.T) {
	for _, n := range []int{8, 360, 1024} {
		x := randComplex(n, int64(n))
		orig := append([]complex128(nil), x...)
		p := NewPlan(n)
		a := make([]complex128, n)
		b := make([]complex128, n)
		p.Transform(a, x)
		p.Transform(b, x)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("n=%d bin %d: repeated transform differs: %v vs %v", n, k, a[k], b[k])
			}
		}
		for i := range x {
			if x[i] != orig[i] {
				t.Fatalf("n=%d: Transform modified src[%d]", n, i)
			}
		}
	}
}

// TestPlanInverseRoundTrip checks InverseInto(Transform(x)) == x for both
// radix-2 and Bluestein lengths.
func TestPlanInverseRoundTrip(t *testing.T) {
	for _, n := range []int{4, 7, 64, 131, 360} {
		x := randComplex(n, int64(n)+100)
		p := NewPlan(n)
		fwd := make([]complex128, n)
		back := make([]complex128, n)
		p.Transform(fwd, x)
		p.InverseInto(back, fwd)
		if err := maxErr(back, x); err > 1e-9 {
			t.Errorf("n=%d: round-trip error %g", n, err)
		}
	}
}

// TestRealPlanMatchesComplexFFT checks the packed real-input transform
// against the full complex transform, for even lengths (half-length pack)
// and odd lengths (full-transform fallback), with and without mean shift.
func TestRealPlanMatchesComplexFFT(t *testing.T) {
	for _, n := range []int{2, 7, 8, 131, 360, 672, 1024} {
		x := randSeries(n, int64(n))
		for _, shift := range []float64{0, 40.25} {
			cx := make([]complex128, n)
			for i, v := range x {
				cx[i] = complex(v-shift, 0)
			}
			want := FFT(cx)
			half := n/2 + 1
			got := make([]complex128, half)
			PlanReal(n).HalfSpectrum(got, x, shift)
			norm := 0.0
			for _, v := range x {
				norm += math.Abs(v - shift)
			}
			if norm == 0 {
				norm = 1
			}
			for k := 0; k < half; k++ {
				if d := cmplx.Abs(got[k] - want[k]); d > 1e-12*norm {
					t.Errorf("n=%d shift=%g bin %d: |real-complex| = %g", n, shift, k, d)
				}
			}
		}
	}
}

// TestScratchPeriodogramMatchesOneShot checks the scratch path against the
// package-level Periodogram bit for bit, including across reuse at
// different lengths.
func TestScratchPeriodogramMatchesOneShot(t *testing.T) {
	sc := NewScratch()
	for _, n := range []int{48, 672, 131, 672, 48} { // revisit lengths to hit warm plans
		x := randSeries(n, int64(n)*3)
		want := Periodogram(x)
		got := sc.Periodogram(x)
		if len(got) != len(want) {
			t.Fatalf("n=%d: len %d vs %d", n, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("n=%d bin %d: scratch %v vs one-shot %v", n, k, got[k], want[k])
			}
		}
	}
}

// TestDiurnalStatsMatchesLegacyPair checks that the combined statistic
// equals the DiurnalScore/DiurnalSNR pair exactly, on diurnal, noisy, and
// edge-case series, with a reused scratch.
func TestDiurnalStatsMatchesLegacyPair(t *testing.T) {
	opts := DiurnalScoreOpts{SampleInterval: 3600, Period: 86400, Harmonics: 3}
	sc := NewScratch()
	cases := map[string][]float64{
		"diurnal":  randSeries(28*24, 1),
		"noise":    randComplexNoise(28 * 24),
		"constant": make([]float64, 28*24),
		"short":    randSeries(24, 2),
	}
	for name, x := range cases {
		score, errScore := DiurnalScore(x, opts)
		snr, errSNR := DiurnalSNR(x, opts)
		st, err := sc.DiurnalStats(x, opts)
		if (err != nil) != (errScore != nil) || (err != nil) != (errSNR != nil) {
			t.Fatalf("%s: error mismatch: stats=%v score=%v snr=%v", name, err, errScore, errSNR)
		}
		if err != nil {
			continue
		}
		if st.Score != score || st.SNR != snr {
			t.Errorf("%s: DiurnalStats = {%v %v}, legacy pair = {%v %v}", name, st.Score, st.SNR, score, snr)
		}
	}
}

func randComplexNoise(n int) []float64 {
	rng := rand.New(rand.NewSource(99))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

// TestScratchSteadyStateAllocs checks the headline claim: a warm scratch
// computes periodograms and diurnal statistics without allocating.
func TestScratchSteadyStateAllocs(t *testing.T) {
	x := randSeries(28*24, 7)
	opts := DiurnalScoreOpts{SampleInterval: 3600, Period: 86400, Harmonics: 3}
	sc := NewScratch()
	if _, err := sc.DiurnalStats(x, opts); err != nil { // warm up
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { sc.Periodogram(x) }); n > 0 {
		t.Errorf("warm Periodogram allocates %.0f times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { sc.DiurnalStats(x, opts) }); n > 0 {
		t.Errorf("warm DiurnalStats allocates %.0f times per call", n)
	}
}

// BenchmarkPlanFFTPow2_4096 measures a warm-plan radix-2 transform; the
// one-shot equivalent is BenchmarkFFTPow2_4096 in fft_test.go.
func BenchmarkPlanFFTPow2_4096(b *testing.B) {
	x := randComplex(4096, 1)
	p := NewPlan(4096)
	dst := make([]complex128, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transform(dst, x)
	}
}

// BenchmarkPlanFFTBluestein_3665 measures a warm-plan transform of an
// awkward (prime-factor-heavy) length via the cached Bluestein chirp.
func BenchmarkPlanFFTBluestein_3665(b *testing.B) {
	x := randComplex(3665, 2)
	p := NewPlan(3665)
	dst := make([]complex128, 3665)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transform(dst, x)
	}
}

// BenchmarkDiurnalStatsMonth is the warm-scratch counterpart of
// BenchmarkDiurnalScoreMonth: same 28 days of 11-minute rounds, but one
// cached-plan periodogram yields both statistics.
func BenchmarkDiurnalStatsMonth(b *testing.B) {
	opts := DefaultDiurnalOpts()
	n := int(28 * 86400 / opts.SampleInterval)
	x := make([]float64, n)
	for i := range x {
		x[i] = 10 + 5*math.Sin(2*math.Pi*float64(i)*opts.SampleInterval/86400)
	}
	sc := NewScratch()
	if _, err := sc.DiurnalStats(x, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.DiurnalStats(x, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeriodogram measures the scratch periodogram on a 28-day hourly
// series (672 samples, the classifier's segment length).
func BenchmarkPeriodogram(b *testing.B) {
	x := randSeries(28*24, 11)
	sc := NewScratch()
	sc.Periodogram(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Periodogram(x)
	}
}

// BenchmarkDiurnalStats measures the full diurnal test (one periodogram
// feeding both statistics) on the classifier's segment length.
func BenchmarkDiurnalStats(b *testing.B) {
	x := randSeries(28*24, 13)
	opts := DiurnalScoreOpts{SampleInterval: 3600, Period: 86400, Harmonics: 3}
	sc := NewScratch()
	if _, err := sc.DiurnalStats(x, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.DiurnalStats(x, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// InverseInto computes the inverse DFT of src into dst, normalized by 1/N
// so that InverseInto∘Transform is the identity up to floating-point
// error. Both slices must have the length n the plan was built for
// (NewPlan(n)); dst may alias src.
func (p *Plan) InverseInto(dst, src []complex128) {
	p.transform(dst, src, true)
	inv := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= inv
	}
}
