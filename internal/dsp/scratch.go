package dsp

import (
	"fmt"
	"math"
	"sort"
)

// Stats bundles the two spectral statistics of the §2.4 diurnal test: the
// energy fraction at 24 h and its harmonics (Score) and the peak contrast
// over the spectral neighbourhood (SNR). Computing them together costs one
// periodogram instead of two.
type Stats struct {
	Score float64
	SNR   float64
}

// Scratch holds per-worker reusable DSP state: real-input FFT plans
// cached by length and the periodogram/band/neighbourhood buffers of the
// diurnal test. A Scratch is not safe for concurrent use — give each
// goroutine its own (the pipeline does, via core.Scratch) rather than
// sharing one behind a lock; the zero cost of a per-worker cache beats
// serializing every transform.
type Scratch struct {
	real map[int]*RealPlan

	spec  []complex128 // half-spectrum buffer
	p     []float64    // periodogram buffer
	band  []bool       // harmonic-band membership per bin
	neigh []float64    // neighbourhood bins for the SNR median
}

// NewScratch returns an empty scratch; plans are built lazily per length.
func NewScratch() *Scratch {
	return &Scratch{real: map[int]*RealPlan{}}
}

// RealPlan returns the cached real-input plan for length n, building it on
// first use.
func (s *Scratch) RealPlan(n int) *RealPlan {
	if rp, ok := s.real[n]; ok {
		return rp
	}
	rp := PlanReal(n)
	s.real[n] = rp
	return rp
}

// Periodogram returns the one-sided power spectral estimate |X_k|^2 / N
// for k = 0..N/2 of the real series x after mean removal (so the DC bin
// reflects only numerical residue, not the series offset), using the
// cached real-input plan and writing into a scratch-owned buffer. The
// returned slice is valid until the next call on this Scratch.
func (s *Scratch) Periodogram(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	half := n/2 + 1
	s.spec = growC(s.spec, half)
	s.RealPlan(n).HalfSpectrum(s.spec, x, mean)
	s.p = growF(s.p, half)
	for k := 0; k < half; k++ {
		re := real(s.spec[k])
		im := imag(s.spec[k])
		s.p[k] = (re*re + im*im) / float64(n)
	}
	return s.p
}

// DiurnalStats evaluates the diurnal test once: a single periodogram
// yields both the energy-fraction score and the SNR. Score is the fraction
// of non-DC spectral energy at the target period and its harmonics, in
// [0, 1]; SNR is the mean power of the harmonic peaks over the median
// power of nearby non-harmonic bins, which stays low on red-spectrum noise
// that still scores high on energy. It returns an error for non-positive
// intervals or periods and for series shorter than two periods (the
// fundamental is then unresolvable). Steady-state calls on a warm Scratch
// allocate nothing.
func (s *Scratch) DiurnalStats(x []float64, opts DiurnalScoreOpts) (Stats, error) {
	if opts.SampleInterval <= 0 || opts.Period <= 0 {
		return Stats{}, fmt.Errorf("dsp: non-positive interval or period")
	}
	if opts.Harmonics <= 0 {
		opts.Harmonics = 3
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1
	}
	n := len(x)
	need := int(2 * opts.Period / opts.SampleInterval)
	if n < need {
		return Stats{}, fmt.Errorf("dsp: series of %d samples is shorter than two periods (%d samples)", n, need)
	}
	return s.statsFromPeriodogram(s.Periodogram(x), n, opts), nil
}

// statsFromPeriodogram is the post-FFT kernel of DiurnalStats: band
// membership, energy-fraction score, and peak-over-median SNR from one
// periodogram. opts must already carry its defaults.
func (s *Scratch) statsFromPeriodogram(p []float64, n int, opts DiurnalScoreOpts) Stats {
	// Harmonic band membership as a bool slice over bins: the bins of each
	// harmonic's ±Tolerance window. Iterating bins in ascending order below
	// reproduces the ascending-unique summation order the legacy map +
	// sort.Ints pair produced, without the per-call map and sort.
	s.band = growBool(s.band, len(p))
	for k := range s.band {
		s.band[k] = false
	}
	fund := float64(n) * opts.SampleInterval / opts.Period
	for h := 1; h <= opts.Harmonics; h++ {
		center := int(math.Round(fund * float64(h)))
		for d := -opts.Tolerance; d <= opts.Tolerance; d++ {
			if k := center + d; k >= 1 && k < len(p) {
				s.band[k] = true
			}
		}
	}

	var st Stats

	// Score: band energy over total non-DC energy.
	total := 0.0
	for k := 1; k < len(p); k++ {
		total += p[k]
	}
	if total > 0 {
		bandSum := 0.0
		for k := 1; k < len(p); k++ {
			if s.band[k] {
				bandSum += p[k]
			}
		}
		st.Score = bandSum / total
	}

	// SNR: mean of the per-harmonic peak bins over the median of the
	// nearby non-harmonic bins.
	peak := 0.0
	nPeak := 0
	for h := 1; h <= opts.Harmonics; h++ {
		center := int(math.Round(fund * float64(h)))
		best := 0.0
		found := false
		for d := -opts.Tolerance; d <= opts.Tolerance; d++ {
			if k := center + d; k >= 1 && k < len(p) {
				if p[k] > best {
					best = p[k]
					found = true
				}
			}
		}
		if found {
			peak += best
			nPeak++
		}
	}
	if nPeak == 0 {
		return st
	}
	peak /= float64(nPeak)
	lo := int(math.Round(fund / 2))
	hi := int(math.Round(fund * (float64(opts.Harmonics) + 0.5)))
	if lo < 1 {
		lo = 1
	}
	if hi >= len(p) {
		hi = len(p) - 1
	}
	s.neigh = s.neigh[:0]
	for k := lo; k <= hi; k++ {
		if !s.band[k] {
			s.neigh = append(s.neigh, p[k])
		}
	}
	if len(s.neigh) == 0 {
		return st
	}
	sort.Float64s(s.neigh)
	med := s.neigh[len(s.neigh)/2]
	if med == 0 {
		if peak != 0 {
			st.SNR = math.Inf(1)
		}
		return st
	}
	st.SNR = peak / med
	return st
}

func growF(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

func growC(buf []complex128, n int) []complex128 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]complex128, n)
}

func growBool(buf []bool, n int) []bool {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]bool, n)
}
