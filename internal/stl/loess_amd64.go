package stl

// haveVectorRows reports whether the CPU has AVX and the operating system
// saves the YMM registers across context switches (CPUID.1:ECX OSXSAVE and
// AVX, then XCR0's SSE and AVX state bits).
func haveVectorRows() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const sseState, avxState = 1 << 1, 1 << 2
	xcr0, _ := xgetbv()
	return xcr0&(sseState|avxState) == sseState|avxState
}

// weightedSumsVec accumulates the five sums of vecPoints adjacent points
// that share the row w, with robustness weights: point p's neighbours are
// y[p : p+len(w)] and rho[p : p+len(w)]. Entry p of each of s's sums is
// what fitRow returns for point p, bit for bit.
func weightedSumsVec(w, xs, y, rho []float64, s *vecSums) {
	m := len(w)
	weightedSumsAVX(w, xs[:m], y[:m+vecPoints-1], rho[:m+vecPoints-1], s)
}

// dataSumsVec is dataSums3 at vector width: t0 and t1 of vecPoints
// adjacent points without robustness weights, into s.t0 and s.t1.
func dataSumsVec(w, xs, y []float64, s *vecSums) {
	m := len(w)
	dataSumsAVX(w, xs[:m], y[:m+vecPoints-1], s)
}

// loess_amd64.s keeps each sum of vecPoints points in two YMM registers;
// one of these constants overflows, and the package does not compile,
// unless vecPoints is 8.
const (
	_ uint = vecPoints - 8
	_ uint = 8 - vecPoints
)

// Implemented in loess_amd64.s.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func weightedSumsAVX(w, xs, y, rho []float64, s *vecSums)

//go:noescape
func dataSumsAVX(w, xs, y []float64, s *vecSums)
