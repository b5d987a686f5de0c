package changepoint

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// stepSeries builds a noisy series with a few injected level shifts, noisy
// enough to trip CUSUM repeatedly.
func stepSeries(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	level := 0.0
	for i := range x {
		if i > 0 && rng.Intn(97) == 0 {
			level += rng.NormFloat64() * 3
		}
		x[i] = level + rng.NormFloat64()*0.1
	}
	return x
}

// batchForward is the batch reference the online detector must match: the
// forward pass with contiguous-alarm merging (no time-reversed end
// refinement, which needs the future).
func batchForward(x []float64, opts Opts) []Change {
	return mergeContiguous(detectOnePass(x, opts, nil))
}

func TestOnlineMatchesBatchForward(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	opts := Opts{Threshold: 1, Drift: 0.004}
	for trial := 0; trial < 20; trial++ {
		x := stepSeries(rng, 500+rng.Intn(500))
		want := batchForward(x, opts)
		o, err := NewOnline(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range x {
			o.Update(v)
		}
		if !reflect.DeepEqual(stripAmp(want), stripAmp(o.Changes())) {
			t.Fatalf("trial %d: online %v != batch %v", trial, o.Changes(), want)
		}
		if o.Count() != len(x) {
			t.Fatalf("trial %d: count %d != %d", trial, o.Count(), len(x))
		}
	}
}

// TestOnlineChunkingInvariant feeds the same series in random chunk sizes
// and asserts the result never depends on the chunking.
func TestOnlineChunkingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	opts := Opts{Threshold: 1, Drift: 0.004}
	x := stepSeries(rng, 2000)
	want := batchForward(x, opts)
	for trial := 0; trial < 10; trial++ {
		o, _ := NewOnline(opts)
		for i := 0; i < len(x); {
			j := i + 1 + rng.Intn(40)
			if j > len(x) {
				j = len(x)
			}
			o.UpdateBatch(x[i:j])
			i = j
		}
		if !reflect.DeepEqual(stripAmp(want), stripAmp(o.Changes())) {
			t.Fatalf("trial %d: chunked online diverged from batch", trial)
		}
	}
}

// TestOnlineSnapshotRestore kills the detector at an arbitrary point,
// restores from its persisted state, and checks the combined run is
// identical to an uninterrupted one — the crash-resume contract the
// streaming daemon relies on.
func TestOnlineSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	opts := Opts{Threshold: 1, Drift: 0.004}
	x := stepSeries(rng, 1500)
	want := batchForward(x, opts)
	for _, cut := range []int{0, 1, 7, 500, 1499} {
		o1, _ := NewOnline(opts)
		o1.UpdateBatch(x[:cut])
		st := o1.State()
		emitted := append([]Change(nil), o1.Changes()...)
		o2, err := RestoreOnline(opts, st, emitted)
		if err != nil {
			t.Fatal(err)
		}
		o2.UpdateBatch(x[cut:])
		if !reflect.DeepEqual(stripAmp(want), stripAmp(o2.Changes())) {
			t.Fatalf("cut %d: restored run diverged from uninterrupted", cut)
		}
	}
}

func TestOnlineRejectsBadOpts(t *testing.T) {
	if _, err := NewOnline(Opts{Threshold: 0}); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := NewOnline(Opts{Threshold: 1, Drift: -1}); err == nil {
		t.Error("negative drift accepted")
	}
}

// stripAmp zeroes amplitudes for comparison: Online does not fill them
// (documented), and the batch forward pass leaves them zero too — this
// keeps the comparison honest if that ever changes.
func stripAmp(cs []Change) []Change {
	out := make([]Change, len(cs))
	copy(out, cs)
	for i := range out {
		out[i].Amplitude = 0
	}
	return out
}

// TestOnlineAllNaN mirrors the batch edge suite's TestDetectAllNaN: an
// all-NaN window (a streaming block whose normalized series is all gaps)
// must detect nothing. Before the alarm condition was flipped to the
// batch detector's positive form, every NaN sample emitted a bogus Down
// change — one per sample, forever.
func TestOnlineAllNaN(t *testing.T) {
	o, err := NewOnline(Opts{Threshold: 1, Drift: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if o.Update(math.NaN()) {
			t.Fatalf("NaN sample %d tripped an alarm", i)
		}
	}
	if got := o.Changes(); len(got) != 0 {
		t.Fatalf("all-NaN window detected %+v", got)
	}
	if o.Count() != 64 {
		t.Fatalf("count %d, want 64", o.Count())
	}
	// Parity with batch on the same input.
	x := make([]float64, 64)
	for i := range x {
		x[i] = math.NaN()
	}
	if want := batchForward(x, Opts{Threshold: 1, Drift: 0.004}); len(want) != 0 {
		t.Fatalf("batch reference detected %+v", want)
	}
}

// TestOnlineSingleSample: one sample has no difference to accumulate —
// no alarm, usable state, resumable.
func TestOnlineSingleSample(t *testing.T) {
	opts := Opts{Threshold: 1, Drift: 0.004}
	o, err := NewOnline(opts)
	if err != nil {
		t.Fatal(err)
	}
	if o.Update(3.14) {
		t.Fatal("single sample alarmed")
	}
	if len(o.Changes()) != 0 || o.Count() != 1 {
		t.Fatalf("changes %v count %d", o.Changes(), o.Count())
	}
	// The snapshot after one sample restores cleanly.
	r, err := RestoreOnline(opts, o.State(), o.Changes())
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 1 {
		t.Fatalf("restored count %d", r.Count())
	}
}

// TestOnlineEmptyBaseline: a frozen baseline of length 0 normalizes to an
// empty series (stats.ZScore of nothing is nothing); feeding it is a
// no-op and the detector stays usable for later real samples.
func TestOnlineEmptyBaseline(t *testing.T) {
	o, err := NewOnline(Opts{Threshold: 1, Drift: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	o.UpdateBatch(Normalize(nil))
	o.UpdateBatch(Normalize([]float64{}))
	if o.Count() != 0 || len(o.Changes()) != 0 {
		t.Fatalf("empty baseline advanced the detector: count %d changes %v", o.Count(), o.Changes())
	}
	// Still alive: a clear step afterwards is detected.
	for i := 0; i < 50; i++ {
		o.Update(0)
	}
	for i := 0; i < 50; i++ {
		o.Update(5)
	}
	if len(o.Changes()) == 0 {
		t.Fatal("detector dead after empty baseline")
	}
}

// Count returns how many samples have been fed.
func (o *Online) Count() int {
	if !o.s.Started {
		return 0
	}
	return o.s.Next
}

// UpdateBatch feeds a chunk of samples in order.
func (o *Online) UpdateBatch(xs []float64) {
	for _, v := range xs {
		o.Update(v)
	}
}
