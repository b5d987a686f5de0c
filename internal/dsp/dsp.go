// Package dsp provides the signal-processing primitives used by the
// diurnal-activity pipeline: a fast Fourier transform for arbitrary input
// lengths, periodogram estimation, and a diurnal-energy score that decides
// whether an active-address time series carries a daily rhythm.
//
// The paper (§2.4) identifies diurnal blocks "by taking the FFT of the
// active addresses over time and looking for energy in frequencies
// corresponding to 24 hours, or harmonics of that frequency". This package
// implements exactly that test, from scratch, on top of the standard
// library only.
//
// There is one API layer. Plan, RealPlan and Scratch cache everything that
// depends only on the transform length and write into reusable buffers, so
// a worker that analyzes millions of blocks pays the trigonometry and
// allocation once per distinct series length; Scratch.DiurnalStats is the
// diurnal test the pipeline and the streaming daemon's refreshes run. The
// one-shot convenience functions the package once exported (FFT, IFFT,
// FFTReal, Periodogram, DiurnalScore, DiurnalSNR) survive only in the
// package's tests, as the naive oracles the plan layer is checked against.
package dsp

// DiurnalScoreOpts configures the diurnal-energy test.
type DiurnalScoreOpts struct {
	// SampleInterval is the spacing between consecutive samples in seconds.
	SampleInterval float64
	// Period is the target period in seconds (the paper uses 24 h).
	Period float64
	// Harmonics is the number of harmonics of the fundamental to include
	// (1 means fundamental only). The paper counts "24 hours, or harmonics
	// of that frequency"; we default to 3 when zero.
	Harmonics int
	// Tolerance is the half-width, in frequency bins, of the window around
	// each harmonic whose energy is attributed to the harmonic. Defaults
	// to 1 when zero (the exact bin plus one neighbour on each side),
	// absorbing spectral leakage when the series length is not an integer
	// number of periods.
	Tolerance int
}
