package dsp

// One-shot forms of the plan layer: each builds a throwaway plan or
// scratch and returns a fresh slice. No production code calls them; they
// are the simplest statement of each transform and statistic, so the
// tests use them as oracles for the reusable-buffer paths.

// FFT returns the discrete Fourier transform of x. The input may have any
// length: power-of-two lengths use an in-place iterative radix-2
// Cooley-Tukey transform, and other lengths use Bluestein's chirp-z
// algorithm (which internally pads to a power of two). The input slice is
// not modified.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	NewPlan(n).Transform(out, x)
	return out
}

// IFFT returns the inverse discrete Fourier transform of x, normalized by
// 1/N so that IFFT(FFT(x)) == x up to floating-point error.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	NewPlan(n).InverseInto(out, x)
	return out
}

// FFTReal transforms a real-valued series, returning the full complex
// spectrum of length len(x).
func FFTReal(x []float64) []complex128 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return FFT(cx)
}

// Periodogram returns the one-sided power spectral estimate |X_k|^2 / N for
// k = 0..N/2 of the real series x, after removing the mean (so the DC bin
// reflects only numerical residue, not the series offset).
func Periodogram(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	p := NewScratch().Periodogram(x)
	out := make([]float64, len(p))
	copy(out, p)
	return out
}

// DefaultDiurnalOpts returns the paper-default options for series sampled
// at Trinocular's 11-minute round interval.
func DefaultDiurnalOpts() DiurnalScoreOpts {
	return DiurnalScoreOpts{
		SampleInterval: 660,
		Period:         86400,
		Harmonics:      3,
		Tolerance:      1,
	}
}

// DiurnalStats evaluates the diurnal test with a throwaway scratch.
func DiurnalStats(x []float64, opts DiurnalScoreOpts) (Stats, error) {
	return NewScratch().DiurnalStats(x, opts)
}

// DiurnalScore returns the fraction of non-DC spectral energy that lies at
// the target period and its harmonics: a value in [0, 1]. A pure sinusoid
// at 24 h scores ~1; white noise scores near the fraction of bins counted.
// It returns an error when the series is shorter than two periods, because
// the fundamental is then unresolvable.
func DiurnalScore(x []float64, opts DiurnalScoreOpts) (float64, error) {
	st, err := DiurnalStats(x, opts)
	return st.Score, err
}

// DiurnalSNR returns the contrast between the 24-hour harmonics and the
// surrounding spectral neighbourhood: the mean power of the harmonic bins
// divided by the median power of nearby non-harmonic bins. Unlike
// DiurnalScore's global energy fraction, the SNR is robust to red-spectrum
// noise (slow random wander concentrates energy at low frequencies without
// creating a sharp 24 h peak). A clean diurnal block scores in the
// hundreds; noise scores near 1.
func DiurnalSNR(x []float64, opts DiurnalScoreOpts) (float64, error) {
	st, err := DiurnalStats(x, opts)
	return st.SNR, err
}
