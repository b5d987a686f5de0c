package probe

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/netsim"
)

var jan6 = netsim.Date(2020, time.January, 6)

func newBlock(t *testing.T, spec netsim.Spec) *netsim.Block {
	t.Helper()
	b, err := netsim.NewBlock(42, 1234, spec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestValidate(t *testing.T) {
	if err := (&Engine{}).Validate(); err == nil {
		t.Error("expected error with no observers")
	}
	e := &Engine{Observers: []Observer{{Name: "x", Phase: -1}}}
	if err := e.Validate(); err == nil {
		t.Error("expected error for negative phase")
	}
	e = &Engine{Observers: []Observer{{Name: "x", Phase: netsim.RoundSeconds}}}
	if err := e.Validate(); err == nil {
		t.Error("expected error for phase >= round")
	}
	e = &Engine{Observers: []Observer{{Name: "x", Extra: -1}}}
	if err := e.Validate(); err == nil {
		t.Error("expected error for negative budget")
	}
}

// TestValidateLossModel: a NaN or out-of-range loss parameter would make
// every HashUnit comparison false and silently mean "never lost".
func TestValidateLossModel(t *testing.T) {
	nan := math.NaN()
	for _, l := range []LossModel{
		{Base: nan}, {DiurnalAmp: nan}, {Base: -0.1}, {DiurnalAmp: -0.1},
		{Base: 1.5}, {DiurnalAmp: 1.01}, {Base: math.Inf(1)},
	} {
		l := l
		e := &Engine{Observers: []Observer{{Name: "w", Loss: &l}}}
		if err := e.Validate(); err == nil {
			t.Errorf("loss %+v: expected error", l)
		}
	}
	for _, l := range []LossModel{{}, {Base: 1}, {Base: 0.3, DiurnalAmp: 1}} {
		l := l
		e := &Engine{Observers: []Observer{{Name: "w", Loss: &l}}}
		if err := e.Validate(); err != nil {
			t.Errorf("loss %+v: %v", l, err)
		}
	}
}

func TestRunEmptyWindowAndEmptyBlock(t *testing.T) {
	e := &Engine{Observers: StandardObservers(1)}
	b := newBlock(t, netsim.Spec{Workers: 10})
	if err := e.Run(b, jan6, jan6, func(int, Record) {}); err == nil {
		t.Error("expected error for empty window")
	}
	empty := newBlock(t, netsim.Spec{})
	called := false
	if err := e.Run(empty, jan6, jan6+3600, func(int, Record) { called = true }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("block with empty E(b) should produce no probes")
	}
}

func TestOrderSharedAcrossObserversAndStablePerQuarter(t *testing.T) {
	b := newBlock(t, netsim.Spec{Workers: 30, AlwaysOn: 5})
	e1 := &Engine{Observers: StandardObservers(4), QuarterSeed: 7}
	e2 := &Engine{Observers: StandardObservers(1), QuarterSeed: 7}
	o1, o2 := e1.Order(b), e2.Order(b)
	if len(o1) != 35 {
		t.Fatalf("order length %d, want 35", len(o1))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("order must depend only on quarter seed and block")
		}
	}
	e3 := &Engine{Observers: StandardObservers(1), QuarterSeed: 8}
	diff := false
	for i, v := range e3.Order(b) {
		if v != o1[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different quarters should reshuffle the order")
	}
}

func TestStopOnFirstPositive(t *testing.T) {
	// In an all-always-on block every round's first probe is positive, so
	// a standard observer sends exactly one probe per round.
	b := newBlock(t, netsim.Spec{AlwaysOn: 256})
	e := &Engine{Observers: []Observer{{Name: "w"}}}
	recs, err := e.Collect(b, jan6, jan6+10*netsim.RoundSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs[0]) != 10 {
		t.Fatalf("got %d probes over 10 rounds, want 10", len(recs[0]))
	}
	for _, r := range recs[0] {
		if !r.Up {
			t.Fatal("always-on probe reported down")
		}
	}
}

func TestBudgetExhaustedOnDeadBlock(t *testing.T) {
	// A block whose E(b) addresses are all currently inactive gets the
	// full 16-probe budget every round.
	b := newBlock(t, netsim.Spec{Workers: 100})
	midnight := jan6 + 2*3600 // workers asleep
	e := &Engine{Observers: []Observer{{Name: "w"}}}
	var count int
	err := e.Run(b, midnight, midnight+netsim.RoundSeconds, func(_ int, r Record) {
		count++
		if r.Up {
			t.Fatal("no one should be active at 2am in a worker block")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != maxPerRound {
		t.Fatalf("probes = %d, want %d", count, maxPerRound)
	}
}

func TestExtraProbesContinuePastPositive(t *testing.T) {
	b := newBlock(t, netsim.Spec{AlwaysOn: 256})
	e := &Engine{Observers: []Observer{{Name: "x", Extra: 4}}}
	recs, err := e.Collect(b, jan6, jan6+netsim.RoundSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs[0]) != 5 { // first positive + 4 extra
		t.Fatalf("probes with Extra=4 on always-up block = %d, want 5", len(recs[0]))
	}
}

func TestCursorAdvancesAcrossRounds(t *testing.T) {
	// With stop-on-first-positive in an always-up block of 4 addresses,
	// successive rounds probe successive addresses in the fixed order.
	b, err := netsim.NewBlock(9, 5, netsim.Spec{AlwaysOn: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Observers: []Observer{{Name: "w"}}}
	order := e.Order(b)
	recs, err := e.Collect(b, jan6, jan6+8*netsim.RoundSeconds)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs[0] {
		if int(r.Addr) != order[i%4] {
			t.Fatalf("round %d probed %d, want %d (cursor must persist)", i, r.Addr, order[i%4])
		}
	}
}

func TestMultiObserverInterleavingOrdered(t *testing.T) {
	b := newBlock(t, netsim.Spec{Workers: 50, AlwaysOn: 5})
	e := &Engine{Observers: StandardObservers(4), QuarterSeed: 3}
	var last int64
	seen := map[int]int{}
	err := e.Run(b, jan6, jan6+2*3600, func(obs int, r Record) {
		if r.T < last {
			t.Fatalf("records out of order: %d after %d", r.T, last)
		}
		last = r.T
		seen[obs]++
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if seen[i] == 0 {
			t.Fatalf("observer %d produced no records", i)
		}
	}
}

func TestObserverPhasesDiffer(t *testing.T) {
	obs := StandardObservers(4)
	phases := map[int64]bool{}
	for _, o := range obs {
		if phases[o.Phase] {
			t.Fatalf("duplicate phase %d", o.Phase)
		}
		phases[o.Phase] = true
	}
}

func TestDeterministicRuns(t *testing.T) {
	b := newBlock(t, netsim.Spec{Workers: 60, AlwaysOn: 6})
	e := &Engine{Observers: StandardObservers(3), QuarterSeed: 11}
	r1, err := e.Collect(b, jan6, jan6+6*3600)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := e.Collect(b, jan6, jan6+6*3600)
	for oi := range r1 {
		if len(r1[oi]) != len(r2[oi]) {
			t.Fatalf("observer %d: %d vs %d records", oi, len(r1[oi]), len(r2[oi]))
		}
		for i := range r1[oi] {
			if r1[oi][i] != r2[oi][i] {
				t.Fatalf("observer %d record %d differs", oi, i)
			}
		}
	}
}

func TestLossModelRate(t *testing.T) {
	var nilModel *LossModel
	if nilModel.Rate(1, jan6) != 0 {
		t.Error("nil model should have zero loss")
	}
	l := &LossModel{Base: 0.1}
	if got := l.Rate(1, jan6); got != 0.1 {
		t.Errorf("base rate = %g", got)
	}
	l = &LossModel{Base: 0.05, DiurnalAmp: 0.2}
	peak := l.Rate(1, jan6+20*3600)
	trough := l.Rate(1, jan6+8*3600)
	if peak < 0.2 || peak > 0.25 {
		t.Errorf("peak rate = %g, want ~0.25", peak)
	}
	if trough > 0.1 {
		t.Errorf("8am rate = %g, want near base", trough)
	}
	l = &LossModel{Base: 2}
	if got := l.Rate(1, jan6); got != 1 {
		t.Errorf("rate should clamp to 1, got %g", got)
	}
	l = &LossModel{Base: 0.5, Match: func(id netsim.BlockID) bool { return id == 7 }}
	if l.Rate(8, jan6) != 0 {
		t.Error("non-matching block should see no loss")
	}
	if l.Rate(7, jan6) != 0.5 {
		t.Error("matching block should see loss")
	}
}

func TestLossReducesObservedReplyRate(t *testing.T) {
	b := newBlock(t, netsim.Spec{AlwaysOn: 200})
	clean := Observer{Name: "e", Seed: 1}
	lossy := Observer{Name: "w", Seed: 2, Loss: &LossModel{Base: 0.3}}
	e := &Engine{Observers: []Observer{clean, lossy}, QuarterSeed: 5}
	// Extra probes so we sample many addresses per round.
	e.Observers[0].Extra = 4
	e.Observers[1].Extra = 4
	recs, err := e.Collect(b, jan6, jan6+24*3600)
	if err != nil {
		t.Fatal(err)
	}
	rate := func(rs []Record) float64 {
		up := 0
		for _, r := range rs {
			if r.Up {
				up++
			}
		}
		return float64(up) / float64(len(rs))
	}
	cleanRate, lossyRate := rate(recs[0]), rate(recs[1])
	if cleanRate < 0.99 {
		t.Errorf("clean observer rate = %g, want ~1", cleanRate)
	}
	if lossyRate > 0.8 || lossyRate < 0.6 {
		t.Errorf("lossy observer rate = %g, want ~0.7", lossyRate)
	}
}

func TestSurveyCoversAllTargetsEveryRound(t *testing.T) {
	b := newBlock(t, netsim.Spec{Workers: 20, AlwaysOn: 3})
	counts := map[int64]int{}
	Survey(b, jan6, jan6+3*netsim.RoundSeconds, func(r Record) {
		counts[r.T]++
	})
	if len(counts) != 3 {
		t.Fatalf("rounds = %d, want 3", len(counts))
	}
	for tm, c := range counts {
		if c != 23 {
			t.Fatalf("round %d probed %d targets, want 23", tm, c)
		}
	}
}

func TestSurveyMatchesGroundTruthCounts(t *testing.T) {
	b := newBlock(t, netsim.Spec{Workers: 40, AlwaysOn: 5})
	tm := jan6 + 12*3600
	up := 0
	Survey(b, tm, tm+netsim.RoundSeconds, func(r Record) {
		if r.Up {
			up++
		}
	})
	if truth := b.CountActive(tm); up != truth {
		t.Fatalf("survey found %d active, truth %d", up, truth)
	}
}

func TestStandardObserversNames(t *testing.T) {
	obs := StandardObservers(6)
	if len(obs) != 6 || obs[0].Name != "w" || obs[5].Name != "g" {
		t.Fatalf("unexpected observers: %+v", obs)
	}
	if got := StandardObservers(10); len(got) != 6 {
		t.Fatalf("should clamp to 6 observers, got %d", len(got))
	}
}

func TestCollectIntoReusesBuffers(t *testing.T) {
	b := newBlock(t, netsim.Spec{Workers: 40, AlwaysOn: 5})
	e := &Engine{Observers: StandardObservers(2), QuarterSeed: 9}
	bufs, err := e.CollectInto(context.Background(), b, jan6, jan6+6*3600, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bufs) != 2 {
		t.Fatalf("bufs = %d", len(bufs))
	}
	firstCap := cap(bufs[0])
	firstLen := len(bufs[0])
	// Second call with the same window must reuse the same backing arrays.
	bufs2, err := e.CollectInto(context.Background(), b, jan6, jan6+6*3600, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if cap(bufs2[0]) != firstCap {
		t.Fatalf("buffer reallocated: cap %d -> %d", firstCap, cap(bufs2[0]))
	}
	if len(bufs2[0]) != firstLen {
		t.Fatalf("deterministic rerun changed record count: %d -> %d", firstLen, len(bufs2[0]))
	}
	// Contents must match a fresh Collect.
	fresh, err := e.Collect(b, jan6, jan6+6*3600)
	if err != nil {
		t.Fatal(err)
	}
	for oi := range fresh {
		for i := range fresh[oi] {
			if fresh[oi][i] != bufs2[oi][i] {
				t.Fatalf("reused buffer diverges at obs %d rec %d", oi, i)
			}
		}
	}
}

func TestCollectIntoShortBufSlice(t *testing.T) {
	b := newBlock(t, netsim.Spec{AlwaysOn: 10})
	e := &Engine{Observers: StandardObservers(3), QuarterSeed: 9}
	bufs := make([][]Record, 1) // shorter than observer count
	got, err := e.CollectInto(context.Background(), b, jan6, jan6+3600, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("bufs not extended: %d", len(got))
	}
}

func TestDownSkipsRounds(t *testing.T) {
	b := newBlock(t, netsim.Spec{AlwaysOn: 20})
	downStart := jan6 + 6*3600
	downEnd := jan6 + 12*3600
	e := &Engine{Observers: StandardObservers(1)}
	e.Observers[0].Down = func(tm int64) bool { return tm >= downStart && tm < downEnd }
	var before, during, after int
	err := e.Run(b, jan6, jan6+24*3600, func(_ int, r Record) {
		switch {
		case r.T < downStart:
			before++
		case r.T < downEnd:
			during++
		default:
			after++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if during != 0 {
		t.Errorf("offline observer produced %d records during downtime", during)
	}
	if before == 0 || after == 0 {
		t.Errorf("expected records outside downtime, got before=%d after=%d", before, after)
	}
}

func TestDownOnlyAffectsOneObserver(t *testing.T) {
	b := newBlock(t, netsim.Spec{AlwaysOn: 20})
	e := &Engine{Observers: StandardObservers(2)}
	e.Observers[0].Down = func(int64) bool { return true }
	counts := make([]int, 2)
	if err := e.Run(b, jan6, jan6+6*3600, func(obs int, r Record) { counts[obs]++ }); err != nil {
		t.Fatal(err)
	}
	if counts[0] != 0 {
		t.Errorf("permanently down observer produced %d records", counts[0])
	}
	if counts[1] == 0 {
		t.Error("healthy observer produced no records")
	}
}

func TestExtraLossDropsPositives(t *testing.T) {
	b := newBlock(t, netsim.Spec{AlwaysOn: 20})
	e := &Engine{Observers: StandardObservers(1)}
	e.Observers[0].ExtraLoss = func(netsim.BlockID, int64, int) bool { return true }
	ups := 0
	total := 0
	if err := e.Run(b, jan6, jan6+6*3600, func(_ int, r Record) {
		total++
		if r.Up {
			ups++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("expected probes despite loss")
	}
	if ups != 0 {
		t.Errorf("total loss still yielded %d positive records", ups)
	}
}

func TestExtraLossSeesTimeOrderedCalls(t *testing.T) {
	b := newBlock(t, netsim.Spec{AlwaysOn: 10, Workers: 20})
	e := &Engine{Observers: StandardObservers(1)}
	last := int64(-1)
	ordered := true
	e.Observers[0].ExtraLoss = func(_ netsim.BlockID, tm int64, _ int) bool {
		if tm < last {
			ordered = false
		}
		last = tm
		return false
	}
	if err := e.Run(b, jan6, jan6+12*3600, func(int, Record) {}); err != nil {
		t.Fatal(err)
	}
	if !ordered {
		t.Error("ExtraLoss calls arrived out of time order")
	}
}

// Run probes block b from start (inclusive) to end (exclusive), then
// invokes fn for every record in (T, observer index) order: obs is the
// observer index into e.Observers, records from one observer are strictly
// ordered, and ties across observers resolve by observer index. Records
// are collected before the first call, so fn never interleaves with the
// observers' Down and ExtraLoss hooks.
func (e *Engine) Run(b *netsim.Block, start, end int64, fn func(obs int, r Record)) error {
	return e.RunContext(context.Background(), b, start, end, fn)
}

// RunContext is Run with cancellation: collection checks ctx between
// rounds and stops as soon as the context is done; the records gathered so
// far are emitted and ctx.Err() is returned.
func (e *Engine) RunContext(ctx context.Context, b *netsim.Block, start, end int64, fn func(obs int, r Record)) error {
	bufs, err := e.CollectInto(ctx, b, start, end, nil)
	next := make([]int, len(bufs))
	for {
		oi := -1
		for i, buf := range bufs {
			if next[i] < len(buf) && (oi < 0 || buf[next[i]].T < bufs[oi][next[oi]].T) {
				oi = i
			}
		}
		if oi < 0 {
			return err
		}
		fn(oi, bufs[oi][next[oi]])
		next[oi]++
	}
}
