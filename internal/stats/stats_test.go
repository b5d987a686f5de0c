package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanBasics(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Mean(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(x); math.Abs(got-4) > 1e-12 {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := StdDev(x); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of singleton = %g, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(x, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := Median([]float64{9}); got != 9 {
		t.Errorf("Median singleton = %g", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	x := []float64{3, 1, 2}
	Quantile(x, 0.5)
	if x[0] != 3 || x[1] != 1 || x[2] != 2 {
		t.Fatalf("input mutated: %v", x)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson = %g, %v; want 1", r, err)
	}
	yn := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(x, yn)
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("anti-correlated Pearson = %g, want -1", r)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Fatalf("constant series r = %g, %v; want 0", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("expected too-few-pairs error")
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(rng.Int31n(50))
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r, err := Pearson(x, y)
		return err == nil && r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZScore(t *testing.T) {
	z := ZScore([]float64{1, 2, 3, 4, 5})
	if math.Abs(Mean(z)) > 1e-12 {
		t.Errorf("z-score mean = %g, want 0", Mean(z))
	}
	if math.Abs(StdDev(z)-1) > 1e-12 {
		t.Errorf("z-score stddev = %g, want 1", StdDev(z))
	}
	for _, v := range ZScore([]float64{7, 7, 7}) {
		if v != 0 {
			t.Fatal("constant series should z-score to zeros")
		}
	}
	if got := ZScore(nil); len(got) != 0 {
		t.Fatalf("ZScore(nil) length %d", len(got))
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ v, want float64 }{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {99, 1},
	}
	for _, cs := range cases {
		if got := c.At(cs.v); math.Abs(got-cs.want) > 1e-12 {
			t.Errorf("CDF.At(%g) = %g, want %g", cs.v, got, cs.want)
		}
	}
	if c.N() != 4 {
		t.Errorf("N = %d, want 4", c.N())
	}
	vals, fracs := c.Points()
	if len(vals) != 3 || vals[1] != 2 || fracs[1] != 0.75 {
		t.Errorf("Points = %v %v", vals, fracs)
	}
	empty := NewCDF(nil)
	if empty.At(5) != 0 {
		t.Error("empty CDF should return 0")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(rng.Int31n(40))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		c := NewCDF(x)
		prev := -0.1
		for v := -3.0; v <= 3.0; v += 0.25 {
			cur := c.At(v)
			if cur < prev-1e-12 || cur < 0 || cur > 1 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestConfusion(t *testing.T) {
	var c Confusion
	c.Add(true, true)   // TP
	c.Add(true, true)   // TP
	c.Add(true, false)  // FP
	c.Add(false, true)  // FN
	c.Add(false, false) // TN
	if c.TP != 2 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("tallies wrong: %+v", c)
	}
	if p := c.Precision(); math.Abs(p-2.0/3) > 1e-12 {
		t.Errorf("precision = %g", p)
	}
	if r := c.Recall(); math.Abs(r-2.0/3) > 1e-12 {
		t.Errorf("recall = %g", r)
	}
	if f := c.F1(); math.Abs(f-2.0/3) > 1e-12 {
		t.Errorf("f1 = %g", f)
	}
	if fnr := c.FalseNegativeRate(); math.Abs(fnr-1.0/3) > 1e-12 {
		t.Errorf("fnr = %g", fnr)
	}
	var empty Confusion
	if empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 || empty.FalseNegativeRate() != 0 {
		t.Error("empty confusion should yield zero rates")
	}
	if empty.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestLogisticSeparableData(t *testing.T) {
	// Points left of x=5 are negative, right are positive: trivially
	// separable, so accuracy should be perfect.
	var x [][]float64
	var y []bool
	for i := 0; i < 100; i++ {
		v := float64(i) / 10.0
		x = append(x, []float64{v})
		y = append(y, v > 5)
	}
	m, err := TrainLogistic(x, y, LogisticTrainOpts{Iterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if m.Predict(x[i]) != y[i] && math.Abs(x[i][0]-5) > 0.3 {
			t.Fatalf("misclassified clear point %v", x[i])
		}
	}
	if m.Prob([]float64{9.9}) < 0.9 {
		t.Errorf("P(9.9) = %g, want near 1", m.Prob([]float64{9.9}))
	}
	if m.Prob([]float64{0.1}) > 0.1 {
		t.Errorf("P(0.1) = %g, want near 0", m.Prob([]float64{0.1}))
	}
}

func TestLogisticTwoFeatures(t *testing.T) {
	// Label depends on the sum of two features; the model should learn
	// positive weights on both.
	rng := rand.New(rand.NewSource(11))
	var x [][]float64
	var y []bool
	for i := 0; i < 400; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x = append(x, []float64{a, b})
		y = append(y, a+b > 10)
	}
	m, err := TrainLogistic(x, y, LogisticTrainOpts{Iterations: 3000})
	if err != nil {
		t.Fatal(err)
	}
	var c Confusion
	for i := range x {
		c.Add(m.Predict(x[i]), y[i])
	}
	if acc := float64(c.TP+c.TN) / 400; acc < 0.95 {
		t.Fatalf("accuracy %.3f < 0.95 (%s)", acc, c.String())
	}
	if m.Weights[0] <= 0 || m.Weights[1] <= 0 {
		t.Errorf("weights %v should both be positive", m.Weights)
	}
}

func TestLogisticErrors(t *testing.T) {
	if _, err := TrainLogistic(nil, nil, LogisticTrainOpts{}); err == nil {
		t.Error("expected error for empty training set")
	}
	if _, err := TrainLogistic([][]float64{{1}}, []bool{true, false}, LogisticTrainOpts{}); err == nil {
		t.Error("expected error for label-count mismatch")
	}
	if _, err := TrainLogistic([][]float64{{}}, []bool{true}, LogisticTrainOpts{}); err == nil {
		t.Error("expected error for zero-dimensional features")
	}
	if _, err := TrainLogistic([][]float64{{1}, {1, 2}}, []bool{true, false}, LogisticTrainOpts{}); err == nil {
		t.Error("expected error for ragged rows")
	}
	if _, err := TrainLogistic([][]float64{{1}}, []bool{true}, LogisticTrainOpts{L2: -1}); err == nil {
		t.Error("expected error for negative L2")
	}
}

func TestLogisticConstantFeature(t *testing.T) {
	// A constant feature must not produce NaNs (scale guards kick in).
	x := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []bool{false, false, true, true}
	m, err := TrainLogistic(x, y, LogisticTrainOpts{Iterations: 1000})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Prob([]float64{4, 5})
	if math.IsNaN(p) {
		t.Fatal("NaN probability with constant feature")
	}
}

func TestSigmoidExtremes(t *testing.T) {
	if sigmoid(1000) != 1 || sigmoid(-1000) != 0 {
		t.Fatal("sigmoid should saturate at extremes")
	}
	if math.Abs(sigmoid(0)-0.5) > 1e-12 {
		t.Fatal("sigmoid(0) != 0.5")
	}
}

func BenchmarkTrainLogistic(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []bool
	for i := 0; i < 1000; i++ {
		a, c := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, c})
		y = append(y, a+c > 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainLogistic(x, y, LogisticTrainOpts{Iterations: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

// N returns the number of samples in the CDF.
func (c *CDF) N() int { return len(c.sorted) }

// Points returns (value, fraction<=value) pairs at each distinct sample,
// suitable for plotting a CDF curve like the paper's Figure 3.
func (c *CDF) Points() (values, fractions []float64) {
	n := len(c.sorted)
	for i := 0; i < n; i++ {
		if i+1 < n && c.sorted[i+1] == c.sorted[i] {
			continue
		}
		values = append(values, c.sorted[i])
		fractions = append(fractions, float64(i+1)/float64(n))
	}
	return values, fractions
}

// F1 returns the harmonic mean of precision and recall.
func (c *Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}
