package dsp

// Incremental spectral estimation for the streaming daemon. The batch
// pipeline takes one FFT per block per quarter; a daemon ingesting rounds
// continuously wants the diurnal energy of the trailing window after every
// round without re-transforming the window. Two primitives provide that:
// Goertzel evaluation of a single DFT bin in O(N) with no plan or scratch,
// and a sliding DFT that advances the tracked harmonic bins in O(bins) per
// sample, with periodic exact reseeding so floating-point drift from the
// recurrence never accumulates past the reseed horizon.

import (
	"math"
	"math/cmplx"
)

// GoertzelBin evaluates one DFT bin of x by Goertzel's algorithm:
// the returned value equals bin k of the DFT of x (convention X_k =
// sum x[n]·e^{-2πikn/N}) up to floating-point error, in O(N) time and
// O(1) space.
func GoertzelBin(x []float64, k int) complex128 {
	n := len(x)
	if n == 0 {
		return 0
	}
	w := 2 * math.Pi * float64(k) / float64(n)
	c := 2 * math.Cos(w)
	var s1, s2 float64
	for _, v := range x {
		s1, s2 = v+c*s1-s2, s1
	}
	// One zero-input step folds the recurrence into the exact bin value.
	s0 := c*s1 - s2
	return complex(s0-s1*math.Cos(w), s1*math.Sin(w))
}

// DiurnalBins returns the DFT bin indices of the target period's
// fundamental and its harmonics for a window of n samples spaced
// sampleInterval seconds apart. Harmonics that would land at or above the
// Nyquist bin are dropped. The defaults mirror DiurnalScoreOpts: 24-hour
// period, 3 harmonics.
func DiurnalBins(n int, sampleInterval, period float64, harmonics int) []int {
	if n <= 0 || sampleInterval <= 0 || period <= 0 {
		return nil
	}
	if harmonics <= 0 {
		harmonics = 3
	}
	fund := float64(n) * sampleInterval / period
	var bins []int
	for h := 1; h <= harmonics; h++ {
		k := int(math.Round(fund * float64(h)))
		if k < 1 || k > n/2 {
			break
		}
		bins = append(bins, k)
	}
	return bins
}

// defaultReseedEvery bounds how many sliding updates run between exact
// Goertzel recomputations. The recurrence multiplies by a unit-magnitude
// twiddle every step, so error grows roughly linearly in steps at machine
// epsilon scale; a few thousand steps keeps the drift far below any
// decision threshold while amortizing the O(N·bins) reseed to O(bins)
// per sample.
const defaultReseedEvery = 4096

// SlidingDiurnal tracks the diurnal spectral energy of the trailing window
// of a sample stream. Each Push advances every tracked harmonic bin with
// the sliding-DFT recurrence
//
//	X_k ← (X_k − x_oldest + x_newest) · e^{+2πik/N}
//
// and maintains the window's running sum and sum of squares, so Score —
// the fraction of the window's non-DC energy at the tracked bins, the
// streaming analogue of DiurnalScoreOpts' energy test — costs O(bins)
// per sample. Not safe for concurrent use.
type SlidingDiurnal struct {
	n           int
	bins        []int
	twid        []complex128 // e^{+2πi·k/N} per tracked bin
	dft         []complex128
	buf         []float64 // ring buffer of the trailing window
	pos         int       // index of the oldest sample once full
	count       int64     // total samples pushed
	sum         float64
	sumsq       float64
	sinceReseed int
	reseedEvery int
}

// NewSlidingDiurnal tracks the given DFT bins over a window of n samples.
// bins is retained; pass the result of DiurnalBins. A zero reseedEvery
// uses the default horizon.
func NewSlidingDiurnal(n int, bins []int, reseedEvery int) *SlidingDiurnal {
	if reseedEvery <= 0 {
		reseedEvery = defaultReseedEvery
	}
	s := &SlidingDiurnal{
		n:           n,
		bins:        bins,
		twid:        make([]complex128, len(bins)),
		dft:         make([]complex128, len(bins)),
		buf:         make([]float64, n),
		reseedEvery: reseedEvery,
	}
	for i, k := range bins {
		s.twid[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k)/float64(n)))
	}
	return s
}

// Push appends one sample to the stream, evicting the oldest window sample
// once the window is full.
func (s *SlidingDiurnal) Push(v float64) {
	if s.count < int64(s.n) {
		s.buf[s.count] = v
		s.sum += v
		s.sumsq += v * v
		s.count++
		if s.count == int64(s.n) {
			s.reseed() // window just filled: seed the bins exactly
		}
		return
	}
	old := s.buf[s.pos]
	s.buf[s.pos] = v
	s.pos = (s.pos + 1) % s.n
	s.sum += v - old
	s.sumsq += v*v - old*old
	d := complex(v-old, 0)
	for i := range s.dft {
		s.dft[i] = (s.dft[i] + d) * s.twid[i]
	}
	s.count++
	if s.sinceReseed++; s.sinceReseed >= s.reseedEvery {
		s.reseed()
	}
}

// reseed recomputes the tracked bins and window sums exactly from the ring
// buffer, canceling accumulated floating-point drift. The window is read
// in time order starting at the oldest sample; the sliding recurrence is
// phase-consistent with that origin because each update rotates by one
// sample's twiddle.
func (s *SlidingDiurnal) reseed() {
	window := s.window(make([]float64, 0, s.n))
	s.sum, s.sumsq = 0, 0
	for _, v := range window {
		s.sum += v
		s.sumsq += v * v
	}
	for i, k := range s.bins {
		s.dft[i] = GoertzelBin(window, k)
	}
	s.sinceReseed = 0
}

// window appends the trailing window in time order to dst.
func (s *SlidingDiurnal) window(dst []float64) []float64 {
	if s.count < int64(s.n) {
		return append(dst, s.buf[:s.count]...)
	}
	dst = append(dst, s.buf[s.pos:]...)
	return append(dst, s.buf[:s.pos]...)
}

// Ready reports whether a full window has been seen; Score is zero before
// that.
func (s *SlidingDiurnal) Ready() bool { return s.count >= int64(s.n) }

// Count returns the total number of samples pushed.
func (s *SlidingDiurnal) Count() int64 { return s.count }

// BinPower returns |X_k|² for tracked bin i over the current window.
func (s *SlidingDiurnal) BinPower(i int) float64 {
	g := s.dft[i]
	return real(g)*real(g) + imag(g)*imag(g)
}

// Score returns the fraction of the window's non-DC spectral energy at the
// tracked bins, in [0, 1]. By Parseval the total non-DC energy is N times
// the window's sum of squared deviations from its mean, and each tracked
// positive-frequency bin k < N/2 has a mirror at N−k carrying equal power,
// hence the factor 2. A flat window scores 0.
func (s *SlidingDiurnal) Score() float64 {
	if !s.Ready() {
		return 0
	}
	n := float64(s.n)
	ss := s.sumsq - s.sum*s.sum/n
	if ss <= 0 {
		return 0
	}
	var harm float64
	for i, k := range s.bins {
		p := s.BinPower(i)
		if 2*k == s.n {
			harm += p // Nyquist bin has no mirror
		} else {
			harm += 2 * p
		}
	}
	score := harm / (n * ss)
	if score > 1 {
		score = 1
	}
	return score
}
