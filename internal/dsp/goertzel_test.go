package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// GoertzelPower returns |X_k|², the periodogram numerator of one bin: the
// oracle SlidingDiurnal.BinPower is held to.
func GoertzelPower(x []float64, k int) float64 {
	g := GoertzelBin(x, k)
	return real(g)*real(g) + imag(g)*imag(g)
}

// TestGoertzelBinMatchesFFT checks the Goertzel evaluation against the FFT
// on random series of awkward lengths.
func TestGoertzelBinMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{8, 17, 64, 168, 337} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec := FFTReal(x)
		for _, k := range []int{0, 1, 2, n / 3, n / 2} {
			got := GoertzelBin(x, k)
			want := spec[k]
			if d := got - want; math.Hypot(real(d), imag(d)) > 1e-8*(1+math.Hypot(real(want), imag(want))) {
				t.Errorf("n=%d k=%d: Goertzel %v, FFT %v", n, k, got, want)
			}
		}
	}
}

// TestSlidingDiurnalMatchesDirect pushes a long noisy diurnal stream and
// checks, at every step past warmup, that the sliding bins match a direct
// Goertzel over the same trailing window.
func TestSlidingDiurnalMatchesDirect(t *testing.T) {
	const n = 168 // one week of hourly samples
	bins := DiurnalBins(n, 3600, 86400, 3)
	if want := []int{7, 14, 21}; len(bins) != 3 || bins[0] != want[0] || bins[1] != want[1] || bins[2] != want[2] {
		t.Fatalf("DiurnalBins = %v, want %v", bins, want)
	}
	s := NewSlidingDiurnal(n, bins, 0)
	rng := rand.New(rand.NewSource(11))
	var stream []float64
	for i := 0; i < 3*n; i++ {
		v := 40 + 12*math.Sin(2*math.Pi*float64(i)/24) + rng.NormFloat64()
		stream = append(stream, v)
		s.Push(v)
		if !s.Ready() {
			continue
		}
		window := stream[len(stream)-n:]
		for bi, k := range bins {
			want := GoertzelPower(window, k)
			got := s.BinPower(bi)
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("step %d bin %d: sliding %g, direct %g", i, k, got, want)
			}
		}
	}
	if sc := s.Score(); sc < 0.5 {
		t.Errorf("diurnal stream score = %g, want > 0.5", sc)
	}
}

// TestSlidingDiurnalDriftBounded runs far past the reseed horizon with a
// tiny horizon and confirms the bins stay glued to the direct computation,
// i.e. reseeding cancels recurrence drift rather than corrupting state.
func TestSlidingDiurnalDriftBounded(t *testing.T) {
	const n = 96
	bins := DiurnalBins(n, 3600, 86400, 2)
	s := NewSlidingDiurnal(n, bins, 50) // reseed every 50 pushes
	rng := rand.New(rand.NewSource(3))
	var stream []float64
	for i := 0; i < 100*n; i++ {
		v := rng.NormFloat64() * 100
		stream = append(stream, v)
		s.Push(v)
	}
	window := stream[len(stream)-n:]
	for bi, k := range bins {
		want := GoertzelPower(window, k)
		got := s.BinPower(bi)
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Errorf("bin %d after long run: sliding %g, direct %g", k, got, want)
		}
	}
}

// TestSlidingDiurnalScoreRange: flat input scores 0, pure tone scores ~1,
// and a not-ready tracker scores 0.
func TestSlidingDiurnalScoreRange(t *testing.T) {
	const n = 168
	bins := DiurnalBins(n, 3600, 86400, 3)
	s := NewSlidingDiurnal(n, bins, 0)
	s.Push(1)
	if s.Ready() || s.Score() != 0 {
		t.Fatalf("tracker ready/scored after one sample")
	}
	for i := 1; i < n; i++ {
		s.Push(1)
	}
	if got := s.Score(); got != 0 {
		t.Errorf("flat window score = %g, want 0", got)
	}
	tone := NewSlidingDiurnal(n, bins, 0)
	for i := 0; i < n; i++ {
		tone.Push(math.Sin(2 * math.Pi * float64(i) / 24))
	}
	if got := tone.Score(); got < 0.99 || got > 1 {
		t.Errorf("pure 24h tone score = %g, want ~1", got)
	}
}

func BenchmarkGoertzelUpdate(b *testing.B) {
	const n = 168
	bins := DiurnalBins(n, 3600, 86400, 3)
	s := NewSlidingDiurnal(n, bins, 0)
	for i := 0; i < n; i++ {
		s.Push(float64(i % 24))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(float64(i % 24))
	}
}
