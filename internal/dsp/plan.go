package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// Plan is a reusable FFT plan for one transform length, in the FFTW
// tradition: everything that depends only on the length — the bit-reversal
// permutation, the per-stage twiddle factors, and, for non-power-of-two
// lengths, the Bluestein chirp and its already-transformed spectrum — is
// computed once at plan time, so repeated transforms touch no trigonometry
// and allocate nothing.
//
// A Plan owns internal work buffers and is therefore NOT safe for
// concurrent use; the pipeline gives each worker goroutine its own plan
// cache (see core.Scratch) instead of sharing plans behind a mutex, which
// would serialize the hot path (see DESIGN.md).
//
// Determinism contract: the power-of-two butterfly schedule and twiddle
// generation replicate the legacy one-shot FFT exactly — same recurrence,
// same order — so plan-based transforms are bit-identical to the historic
// ones. The Bluestein path likewise reproduces the legacy arithmetic; the
// cached chirp spectrum equals what the one-shot path recomputed each call.
type Plan struct {
	n int

	// Power-of-two machinery.
	perm []int          // bit-reversal permutation
	twF  [][]complex128 // forward twiddles, one row per stage
	twI  [][]complex128 // inverse (conjugate) twiddles

	// Bluestein machinery (nil for power-of-two lengths).
	m              int   // padded power-of-two convolution length
	sub            *Plan // power-of-two subplan of length m
	chirpF, chirpI []complex128
	bspecF, bspecI []complex128 // FFT of the chirp filter, both signs
	work           []complex128 // length-m convolution buffer
}

// NewPlan precomputes a transform plan for length n (n >= 0).
func NewPlan(n int) *Plan {
	p := &Plan{n: n}
	if n <= 1 {
		return p
	}
	if n&(n-1) == 0 {
		p.initPow2(n)
		return p
	}
	p.initBluestein(n)
	return p
}

func (p *Plan) initPow2(n int) {
	p.perm = make([]int, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		p.perm[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	p.twF = twiddleTable(n, -1)
	p.twI = twiddleTable(n, 1)
}

// twiddleTable builds the per-stage twiddle rows with the exact recurrence
// the legacy transform used (w starting at 1, repeatedly multiplied by
// cmplx.Rect(1, sign*2*pi/size)), preserving bit-identical butterflies.
func twiddleTable(n int, sign float64) [][]complex128 {
	var tab [][]complex128
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		ang := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Rect(1, ang)
		row := make([]complex128, half)
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			row[k] = w
			w *= wStep
		}
		tab = append(tab, row)
	}
	return tab
}

func (p *Plan) initBluestein(n int) {
	// Chirp: w[k] = exp(sign*i*pi*k^2/n), with k^2 taken mod 2n to keep the
	// argument small and the chirp exactly periodic (as the legacy path did).
	p.chirpF = chirpTable(n, -1)
	p.chirpI = chirpTable(n, 1)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.m = m
	p.sub = NewPlan(m)
	p.work = make([]complex128, m)
	p.bspecF = p.chirpSpectrum(p.chirpF)
	p.bspecI = p.chirpSpectrum(p.chirpI)
}

func chirpTable(n int, sign float64) []complex128 {
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	return chirp
}

// chirpSpectrum transforms the symmetric chirp filter b once at plan time;
// the one-shot path recomputed this FFT on every call.
func (p *Plan) chirpSpectrum(chirp []complex128) []complex128 {
	b := make([]complex128, p.m)
	for k := 0; k < p.n; k++ {
		bc := cmplx.Conj(chirp[k])
		b[k] = bc
		if k > 0 {
			b[p.m-k] = bc
		}
	}
	p.sub.forwardInPlace(b)
	return b
}

// Transform computes the forward DFT of src into dst. Both must have
// the length n the plan was built for (NewPlan(n)); dst may be the same
// slice as src. src is otherwise not modified.
func (p *Plan) Transform(dst, src []complex128) {
	p.transform(dst, src, false)
}

func (p *Plan) transform(dst, src []complex128, inverse bool) {
	n := p.n
	if n == 0 {
		return
	}
	if n == 1 {
		dst[0] = src[0]
		return
	}
	if p.sub == nil { // power of two
		copy(dst, src)
		p.butterflies(dst, inverse)
		return
	}
	chirp, bspec := p.chirpF, p.bspecF
	if inverse {
		chirp, bspec = p.chirpI, p.bspecI
	}
	a := p.work
	for k := 0; k < n; k++ {
		a[k] = src[k] * chirp[k]
	}
	for k := n; k < p.m; k++ {
		a[k] = 0
	}
	p.sub.forwardInPlace(a)
	for i := range a {
		a[i] *= bspec[i]
	}
	p.sub.inverseInPlace(a)
	scale := complex(1/float64(p.m), 0)
	for k := 0; k < n; k++ {
		dst[k] = a[k] * scale * chirp[k]
	}
}

// forwardInPlace applies the power-of-two forward butterflies to x.
func (p *Plan) forwardInPlace(x []complex128) { p.butterflies(x, false) }

// inverseInPlace applies the conjugate (unnormalized inverse) butterflies.
func (p *Plan) inverseInPlace(x []complex128) { p.butterflies(x, true) }

// butterflies runs the iterative radix-2 passes using the cached
// permutation and twiddle rows. The stage order, block order, and twiddle
// values match the legacy in-place transform exactly.
func (p *Plan) butterflies(x []complex128, inverse bool) {
	n := p.n
	for i, j := range p.perm {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tab := p.twF
	if inverse {
		tab = p.twI
	}
	for s, row := range tab {
		size := 2 << uint(s)
		half := size >> 1
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				even := x[start+k]
				odd := x[start+k+half] * row[k]
				x[start+k] = even + odd
				x[start+k+half] = even - odd
			}
		}
	}
}

// RealPlan is a plan for transforming a real-valued series of length n.
// For even n it packs the series into a half-length complex transform
// (z[j] = x[2j] + i*x[2j+1]) and unpacks the spectrum via the conjugate
// symmetry of real input, halving the dominant transform cost; odd lengths
// fall back to a full-length complex transform. Like Plan, a RealPlan owns
// scratch buffers and is not safe for concurrent use.
type RealPlan struct {
	n    int
	half *Plan        // complex plan of length n/2 (even n)
	full *Plan        // complex plan of length n (odd n)
	wr   []complex128 // unpack twiddles e^{-2*pi*i*k/n}, k = 0..n/2
	z    []complex128 // packed input
	zf   []complex128 // transformed packed input
}

// PlanReal precomputes a real-input plan for length n.
func PlanReal(n int) *RealPlan {
	rp := &RealPlan{n: n}
	if n == 0 {
		return rp
	}
	if n%2 == 0 && n >= 2 {
		h := n / 2
		rp.half = NewPlan(h)
		rp.z = make([]complex128, h)
		rp.zf = make([]complex128, h)
		rp.wr = make([]complex128, h+1)
		for k := 0; k <= h; k++ {
			rp.wr[k] = cmplx.Rect(1, -2*math.Pi*float64(k)/float64(n))
		}
		return rp
	}
	rp.full = NewPlan(n)
	rp.z = make([]complex128, n)
	rp.zf = make([]complex128, n)
	return rp
}

// HalfSpectrum computes spectrum bins 0..n/2 of the DFT of (x - shift)
// into dst, which must have length n/2+1. The shift (typically the series
// mean) is folded into the packing step, so the input is traversed exactly
// once — no separate mean-removal or complex-widening pass.
func (rp *RealPlan) HalfSpectrum(dst []complex128, x []float64, shift float64) {
	n := rp.n
	if n == 0 {
		return
	}
	if rp.full != nil { // odd length: complex fallback, still single-pass pack
		for i, v := range x {
			rp.z[i] = complex(v-shift, 0)
		}
		rp.full.Transform(rp.zf, rp.z)
		copy(dst, rp.zf[:n/2+1])
		return
	}
	h := n / 2
	// Pack: z[j] = (x[2j]-shift) + i*(x[2j+1]-shift), one traversal.
	for j := 0; j < h; j++ {
		rp.z[j] = complex(x[2*j]-shift, x[2*j+1]-shift)
	}
	rp.half.Transform(rp.zf, rp.z)
	z0 := rp.zf[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[h] = complex(real(z0)-imag(z0), 0)
	for k := 1; k < h; k++ {
		zk := rp.zf[k]
		zc := cmplx.Conj(rp.zf[h-k])
		fe := (zk + zc) * 0.5
		fo := (zk - zc) * complex(0, -0.5)
		dst[k] = fe + rp.wr[k]*fo
	}
}
