package stl

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// rhoKinds are the robustness-weight shapes the differential cases draw
// from: none, the all-ones vector of a first outer pass, a realistic mix
// with a fifth of the points zeroed, a sparse vector that empties most
// windows, and the all-zero vector that empties every one.
const (
	rhoNil = iota
	rhoOnes
	rhoMixed
	rhoSparse
	rhoZero
	rhoKinds
)

func drawRho(rng *rand.Rand, kind, n int) []float64 {
	if kind == rhoNil {
		return nil
	}
	rho := make([]float64, n)
	for i := range rho {
		switch kind {
		case rhoOnes:
			rho[i] = 1
		case rhoMixed:
			if rng.Intn(5) != 0 {
				rho[i] = rng.Float64()
			}
		case rhoSparse:
			if rng.Intn(40) == 0 {
				rho[i] = 1
			}
		}
	}
	return rho
}

// diurnalSeries builds n hourly samples of a noisy daily rhythm with a
// mid-series level drop.
func diurnalSeries(rng *rand.Rand, n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		level := 50.0
		if i > n/2 {
			level = 35
		}
		y[i] = level + 10*math.Sin(2*math.Pi*float64(i)/24) + rng.NormFloat64()
	}
	return y
}

// drawSeries returns n samples, either small integers (active-address
// counts: products and sums stay exact for a while, so a reordering can
// hide) or a noisy real-valued rhythm (every operation rounds).
func drawSeries(rng *rand.Rand, n int) []float64 {
	y := make([]float64, n)
	integers := rng.Intn(2) == 0
	for i := range y {
		if integers {
			y[i] = float64(rng.Intn(200))
		} else {
			y[i] = 40 + 12*math.Sin(2*math.Pi*float64(i)/24) + 5*rng.NormFloat64()
		}
	}
	return y
}

// emptyWindow reports whether every neighbour the fit at point i would
// weigh has a non-positive robustness weight — the s0 == 0 fallback to
// the window mean — and whether i is an interior point (its window is
// not clamped at either end of a series at least span long).
func emptyWindow(n, span, i int, rho []float64) (empty, interior bool) {
	lo, q, dmax := loessWindow(n, span, float64(i))
	interior = span <= n && lo == i-q/2
	for j := lo; j < lo+q; j++ {
		if math.Abs(float64(j-i))/dmax < 1 && rho[j] > 0 {
			return false, interior
		}
	}
	return true, interior
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// forEachKernel runs test as one subtest per row kernel this CPU has: the
// scalar loops, and the vector ones where haveVectorRows. It switches the
// selector and restores it.
func forEachKernel(t *testing.T, test func(t *testing.T)) {
	defer func(v bool) { vectorRows = v }(vectorRows)
	for _, k := range []struct {
		name   string
		vector bool
	}{{"scalar", false}, {"vector", true}} {
		if k.vector && !haveVectorRows() {
			continue
		}
		vectorRows = k.vector
		t.Run(k.name, test)
	}
}

// TestVectorKernelSelected: on linux/amd64 the vector kernel runs exactly
// when /proc/cpuinfo lists avx (Linux lists it only when it saves the
// YMM registers). A broken CPUID or XGETBV check would otherwise fall back
// to the scalar loops silently, or run AVX where the OS does not save it.
func TestVectorKernelSelected(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("no vector kernel on %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	avx := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			avx = slices.Contains(strings.Fields(flags), "avx")
			break
		}
	}
	if vectorRows != avx {
		t.Errorf("vector kernel selected: %v; /proc/cpuinfo lists avx: %v", vectorRows, avx)
	}
}

// TestLoessIntoMatchesReference holds the row kernel to the implementation
// it replaced over seeded random geometries, on one Workspace throughout —
// so cached rows of one span must never leak into another, and the table
// slots are overwritten many times over.
func TestLoessIntoMatchesReference(t *testing.T) { forEachKernel(t, testLoessIntoMatchesReference) }

func testLoessIntoMatchesReference(t *testing.T) {
	const cases = 6000
	rng := rand.New(rand.NewSource(19))
	var ws Workspace
	var ref referenceWorkspace
	var fallbackInterior, fallbackEdge, inflated, evenSpans int
	for c := 0; c < cases; c++ {
		n := 2 + rng.Intn(330)
		switch {
		case c%50 == 0:
			n = 2016
		case c%7 == 0:
			n = 2 + rng.Intn(2015)
		}
		span := 2 + rng.Intn(260)
		degree := 1
		if c%5 == 0 {
			degree = 2 * rng.Intn(2)
		}
		kind := rng.Intn(rhoKinds)
		y := drawSeries(rng, n)
		rho := drawRho(rng, kind, n)

		got, want := make([]float64, n), make([]float64, n)
		ws.loessInto(got, y, span, degree, rho)
		ref.loessIntoReference(want, y, span, degree, rho)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("case %d (n=%d span=%d degree=%d rho kind %d): point %d is %v, reference %v",
				c, n, span, degree, kind, i, got[i], want[i])
		}

		if span > n {
			inflated++
		}
		if span%2 == 0 {
			evenSpans++
		}
		if degree == 1 && (kind == rhoSparse || kind == rhoZero) {
			for i := 0; i < n; i++ {
				if empty, interior := emptyWindow(n, span, i, rho); empty && interior {
					fallbackInterior++
				} else if empty {
					fallbackEdge++
				}
			}
		}
	}
	// The cases must have reached what they claim to cover.
	if fallbackInterior == 0 || fallbackEdge == 0 {
		t.Errorf("window-mean fallback reached on %d interior and %d edge points; want both", fallbackInterior, fallbackEdge)
	}
	if inflated < cases/20 || evenSpans < cases/3 {
		t.Errorf("only %d inflated-span and %d even-span cases of %d", inflated, evenSpans, cases)
	}
	for _, tab := range ws.tables {
		if tab.span == 0 {
			t.Errorf("a row-table slot is still empty after %d cases: the slots were never recycled", cases)
		}
	}
}

// TestDataSums3MatchesFitRow pins the interleaved accumulations —
// dataSums3 and, where the CPU has them, both vector kernels — to the
// single-point one at the level of the sums themselves: an interior
// point's t1 is multiplied by an s1 that is zero up to rounding, so a
// reordered product there would not reach the smoothed output. For the
// vector kernels every other case spoils the samples and the robustness
// weights (spoil), so their skip mask is held to fitRow's skip as well.
func TestDataSums3MatchesFitRow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vector := haveVectorRows()
	for c := 0; c < 400; c++ {
		m := 1 + rng.Intn(200)
		w, xs, y := make([]float64, m), make([]float64, m), drawSeries(rng, m+vecPoints-1)
		rho := make([]float64, len(y))
		off := rng.Intn(m)
		for k := range w {
			w[k] = rng.Float64()
			xs[k] = float64(k - off)
		}
		for i := range rho {
			rho[i] = rng.Float64()
		}
		t0, t1 := dataSums3(w, xs, y)
		for p := range t0 {
			want := fitRow(w, xs, y[p:p+m], nil)
			if math.Float64bits(t0[p]) != math.Float64bits(want.t0) || math.Float64bits(t1[p]) != math.Float64bits(want.t1) {
				t.Fatalf("case %d point %d: t0, t1 = %v, %v; fitRow %v, %v", c, p, t0[p], t1[p], want.t0, want.t1)
			}
		}
		if !vector {
			continue
		}
		if c%2 == 1 {
			spoil(rng, y, rho)
		}
		var hoisted, weighted vecSums
		dataSumsVec(w, xs, y, &hoisted)
		weightedSumsVec(w, xs, y, rho, &weighted)
		for p := 0; p < vecPoints; p++ {
			want := fitRow(w, xs, y[p:p+m], nil)
			got := want
			got.t0, got.t1 = hoisted.t0[p], hoisted.t1[p]
			if !sameSums(got, want) {
				t.Fatalf("case %d point %d: dataSumsVec %+v; fitRow %+v", c, p, got, want)
			}
			want = fitRow(w, xs, y[p:p+m], rho[p:p+m])
			got = sums{weighted.s0[p], weighted.s1[p], weighted.s2[p], weighted.t0[p], weighted.t1[p]}
			if !sameSums(got, want) {
				t.Fatalf("case %d point %d: weightedSumsVec %+v; fitRow %+v", c, p, got, want)
			}
		}
	}
}

// spoil makes about one sample in eight infinite or NaN and one weight in
// four zero, negative zero, negative, infinite or NaN.
func spoil(rng *rand.Rand, y, rho []float64) {
	samples := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	weights := []float64{0, math.Copysign(0, -1), -0.5, math.Inf(1), math.NaN(), 1}
	for i := range y {
		if rng.Intn(8) == 0 {
			y[i] = samples[rng.Intn(len(samples))]
		}
		if rng.Intn(4) == 0 {
			rho[i] = weights[rng.Intn(len(weights))]
		}
	}
}

// sameSums compares two sets of sums bit for bit, except that a NaN equals
// any NaN: Go does not specify which NaN an operation returns, and the
// compiler orders fitRow's operands one way in a default build and another
// under -race.
func sameSums(a, b sums) bool {
	for _, s := range [][2]float64{{a.s0, b.s0}, {a.s1, b.s1}, {a.s2, b.s2}, {a.t0, b.t0}, {a.t1, b.t1}} {
		if math.Float64bits(s[0]) != math.Float64bits(s[1]) && !(math.IsNaN(s[0]) && math.IsNaN(s[1])) {
			return false
		}
	}
	return true
}

// pipelineOpts are the options core.analyzeTrend decomposes with.
func pipelineOpts(outer int) Opts {
	opts := DefaultOpts(168)
	opts.Periodic = true
	opts.Trend = 168 + 25
	opts.Outer = outer
	return opts
}

func checkDecomposition(t *testing.T, ws *Workspace, ref *referenceWorkspace, y []float64, opts Opts) {
	t.Helper()
	var got, want Result
	if err := ws.DecomposeInto(&got, y, opts); err != nil {
		t.Fatal(err)
	}
	ref.decomposeIntoReference(&want, y, opts)
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"trend", got.Trend, want.Trend},
		{"seasonal", got.Seasonal, want.Seasonal},
		{"resid", got.Resid, want.Resid},
		{"weights", got.Weights, want.Weights},
	} {
		if len(c.got) != len(c.want) {
			t.Fatalf("n=%d outer=%d: %s has %d samples, reference %d", len(y), opts.Outer, c.name, len(c.got), len(c.want))
		}
		if i := sameBits(c.got, c.want); i >= 0 {
			t.Fatalf("n=%d outer=%d: %s[%d] is %v, reference %v", len(y), opts.Outer, c.name, i, c.got[i], c.want[i])
		}
	}
}

// TestDecomposeMatchesReference runs the pipeline's decomposition against
// a copy wired to the reference smoother in the daemon's refresh pattern:
// one Workspace, a series that grows by a day per refresh from two weeks
// to a quarter, and then two series of different lengths taking turns. A
// row cached for a shorter series, or a uniform-weights verdict carried
// from one smoothing into the next, would show here.
func TestDecomposeMatchesReference(t *testing.T) { forEachKernel(t, testDecomposeMatchesReference) }

func testDecomposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	long := diurnalSeries(rng, 2016)
	for i := 0; i < len(long); i += 97 {
		long[i] += 60 // outliers, so the robustness pass has zero weights to hand out
	}
	other := drawSeries(rng, 1200)
	for _, outer := range []int{0, 1, 2} {
		opts := pipelineOpts(outer)
		var ws Workspace
		var ref referenceWorkspace
		step := 24
		if testing.Short() {
			step = 24 * 7
		}
		for n := 336; n <= len(long); n += step {
			checkDecomposition(t, &ws, &ref, long[:n], opts)
		}
		for round := 0; round < 3; round++ {
			checkDecomposition(t, &ws, &ref, other, opts)
			checkDecomposition(t, &ws, &ref, long[:1500+round], opts)
		}
	}
}

// TestWorkspaceSteadyState extends TestDecomposeSteadyStateAllocs to the
// state a long-lived worker is in: its Workspace has decomposed series of
// two lengths with two span pairs. Decomposing any of them again must not
// allocate, and the rows cached for the pipeline's two spans (169 and
// 193) must stay within 300 kB.
func TestWorkspaceSteadyState(t *testing.T) {
	quarter := noisySeasonal(2016, 168, 8)
	month := noisySeasonal(24*30, 24, 9)
	daily := DefaultOpts(24)
	weekly := pipelineOpts(1)
	var ws Workspace
	var res Result
	run := func() {
		for _, c := range []struct {
			y    []float64
			opts Opts
		}{{quarter, weekly}, {month, daily}, {quarter[:1000], weekly}} {
			if err := ws.DecomposeInto(&res, c.y, c.opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if n := testing.AllocsPerRun(5, run); n > 0 {
		t.Errorf("warm workspace allocates %.0f times per round of three decompositions", n)
	}
	bytes := 0
	for _, tab := range ws.tables {
		if tab.span == 169 || tab.span == 193 {
			bytes += 8 * cap(tab.buf)
		}
	}
	if bytes == 0 || bytes > 300<<10 {
		t.Errorf("rows cached for spans 169 and 193 take %d bytes, want 1..%d", bytes, 300<<10)
	}
}

// fuzzCase decodes a fuzzer input into one smoothing: four header bytes
// (n 2..257, span 2..257, degree, rho kind), then one byte per sample and,
// when rho is present, one per weight. Weight bytes map 0 to 0 and 255 to
// 1 so exact zeros and ones are common; sample byte 0x80 is +Inf and 0x81
// NaN, weight byte 1 is negative and 2 NaN, so the terms the oracle skips
// are skipped for the same reason and no others.
func fuzzCase(data []byte) (y, rho []float64, span, degree int, ok bool) {
	if len(data) < 4 {
		return nil, nil, 0, 0, false
	}
	n := 2 + int(data[0])
	span = 2 + int(data[1])
	degree = int(data[2]) % 3
	withRho := data[3]%2 == 1
	data = data[4:]
	at := func(i int) byte {
		if len(data) == 0 {
			return byte(i)
		}
		return data[i%len(data)]
	}
	y = make([]float64, n)
	for i := range y {
		switch b := at(i); b {
		case 0x80:
			y[i] = math.Inf(1)
		case 0x81:
			y[i] = math.NaN()
		default:
			y[i] = float64(int8(b)) / 3
		}
	}
	if withRho {
		rho = make([]float64, n)
		for i := range rho {
			switch b := at(n + i); b {
			case 0:
				rho[i] = 0
			case 1:
				rho[i] = -0.5
			case 2:
				rho[i] = math.NaN()
			case 255:
				rho[i] = 1
			default:
				rho[i] = float64(b) / 255
			}
		}
	}
	return y, rho, span, degree, true
}

// loneInf is 30 sample bytes, all finite but the sixteenth.
var loneInf = []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 9, 8, 7, 6, 5, 4, 0x80, 3, 2, 1, 9, 8, 7, 6, 5, 4, 3, 2, 1, 9, 8}

// FuzzLoessInto: whatever the geometry and the data, the kernel must not
// panic and must equal the reference bit for bit.
func FuzzLoessInto(f *testing.F) {
	f.Add([]byte{40, 5, 1, 0, 3, 9, 200, 17})
	f.Add([]byte{200, 23, 1, 1, 255, 255, 255, 255})             // all ones: hoisted
	f.Add([]byte{200, 24, 1, 1, 0, 0, 0, 0, 0, 255, 0})          // mostly empty windows, even span
	f.Add([]byte{10, 250, 1, 1, 7, 0x80, 90, 0, 1, 255})         // inflated span, Inf, negative weight
	f.Add([]byte{120, 31, 1, 1, 0x81, 4, 0, 0, 0, 0, 0, 0, 60})  // NaN under a zero weight
	f.Add([]byte{60, 9, 1, 0, 5, 0x80, 7, 3, 200, 100, 9})       // Inf at windows' zero-weight ends, no rho
	f.Add(append([]byte{28, 7, 1, 0}, loneInf...))               // one Inf: at the upper end of one window, the lower of another
	f.Add(append([]byte{28, 7, 1, 1}, append(loneInf, 2, 9)...)) // a NaN weight is not skipped
	f.Add([]byte{60, 9, 2, 1, 1, 2, 3, 4, 5})
	f.Add([]byte{60, 9, 0, 0})
	f.Add([]byte{0, 0, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		y, rho, span, degree, ok := fuzzCase(data)
		if !ok {
			return
		}
		forEachKernel(t, func(t *testing.T) { fuzzLoessInto(t, y, rho, span, degree) })
	})
}

func fuzzLoessInto(t *testing.T, y, rho []float64, span, degree int) {
	var ws Workspace
	var ref referenceWorkspace
	got, want := make([]float64, len(y)), make([]float64, len(y))
	for round := 0; round < 2; round++ { // second round: cached rows
		ws.loessInto(got, y, span, degree, rho)
		ref.loessIntoReference(want, y, span, degree, rho)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("n=%d span=%d degree=%d round %d: point %d is %v, reference %v",
				len(y), span, degree, round, i, got[i], want[i])
		}
	}
}

// The benchmarks come in threes — the kernel as selected, the kernel held
// to its scalar loops, and the reference — so one
// `go test -bench 'STLQuarter|LoessInto' ./internal/stl` run reads
// vector : scalar : reference on one host in one state.

func benchQuarter() []float64 { return noisySeasonal(168*12, 168, 11) }

// BenchmarkSTLQuarter decomposes what the benchmark's scans decompose: a
// quarter (12 weeks) of hourly samples with the pipeline's options, on a
// warm workspace.
func BenchmarkSTLQuarter(b *testing.B) {
	y, opts := benchQuarter(), pipelineOpts(1)
	var ws Workspace
	var res Result
	if err := ws.DecomposeInto(&res, y, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.DecomposeInto(&res, y, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSTLQuarterScalar(b *testing.B) {
	scalarKernel(b)
	BenchmarkSTLQuarter(b)
}

// scalarKernel holds loessInto to its scalar loops for the rest of b.
func scalarKernel(b *testing.B) {
	v := vectorRows
	vectorRows = false
	b.Cleanup(func() { vectorRows = v })
}

func BenchmarkSTLQuarterReference(b *testing.B) {
	y, opts := benchQuarter(), pipelineOpts(1)
	var ref referenceWorkspace
	var res Result
	ref.decomposeIntoReference(&res, y, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.decomposeIntoReference(&res, y, opts)
	}
}

// benchLoess runs one trend smoothing (span 193) of a quarter: uniform is
// a first outer pass (rho all ones), weighted a second one (the weights a
// robustness pass over the same series produced).
func benchLoess(b *testing.B, smooth func(dst, y []float64, span, degree int, rho []float64)) {
	y := benchQuarter()
	res, err := Decompose(y, pipelineOpts(1))
	if err != nil {
		b.Fatal(err)
	}
	ones := make([]float64, len(y))
	for i := range ones {
		ones[i] = 1
	}
	for _, c := range []struct {
		name string
		rho  []float64
	}{{"uniform", ones}, {"weighted", res.Weights}} {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]float64, len(y))
			smooth(dst, y, 193, 1, c.rho)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				smooth(dst, y, 193, 1, c.rho)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(y)*193), "ns/pair")
		})
	}
}

func BenchmarkLoessInto(b *testing.B) {
	var ws Workspace
	benchLoess(b, ws.loessInto)
}

func BenchmarkLoessIntoScalar(b *testing.B) {
	scalarKernel(b)
	BenchmarkLoessInto(b)
}

func BenchmarkLoessIntoReference(b *testing.B) {
	var ref referenceWorkspace
	benchLoess(b, ref.loessIntoReference)
}
