package netsim

import (
	"testing"
	"time"
)

// richBlock builds a block exercising every address kind and every event
// kind, including mid-day event boundaries, overlapping holidays, dormancy
// epochs, and multiple renumberings.
func richBlock(t *testing.T, seed uint64) *Block {
	t.Helper()
	spec := Spec{
		Workers: 90, Homes: 70, AlwaysOn: 20, Intermittent: 40, Firewalled: 16,
		TZOffset:    8 * 3600,
		DormantProb: 0.3, dormantEpochDays: 14,
	}
	b, err := NewBlock(0x0a0b0c, seed, spec)
	if err != nil {
		t.Fatalf("NewBlock: %v", err)
	}
	day0 := Date(2020, time.January, 1)
	// Mid-day starts/ends on purpose: the cache must notice event
	// transitions and salt flips inside a single local day.
	b.AddEvent(Event{Kind: EventWFH, Start: day0 + 20*SecondsPerDay + 13*3600, Adoption: 0.6})
	b.AddEvent(Event{Kind: EventWFH, Start: day0 + 40*SecondsPerDay, End: day0 + 55*SecondsPerDay, Adoption: 0.3})
	b.AddEvent(Event{Kind: EventHoliday, Start: day0 + 10*SecondsPerDay, End: day0 + 12*SecondsPerDay, Adoption: 0.8})
	b.AddEvent(Event{Kind: EventHoliday, Start: day0 + 11*SecondsPerDay + 9*3600, End: day0 + 13*SecondsPerDay})
	b.AddEvent(Event{Kind: EventCurfew, Start: day0 + 30*SecondsPerDay + 15*3600, End: day0 + 33*SecondsPerDay, Adoption: 0.9})
	b.AddEvent(Event{Kind: EventOutage, Start: day0 + 25*SecondsPerDay + 7*3600, End: day0 + 25*SecondsPerDay + 11*3600})
	b.AddEvent(Event{Kind: EventRenumber, Start: day0 + 35*SecondsPerDay + 10*3600 + 300})
	b.AddEvent(Event{Kind: EventRenumber, Start: day0 + 50*SecondsPerDay + 2*3600})
	return b
}

// TestActiveCacheEquivalence sweeps every address over an event-rich
// quarter at probing-round resolution and demands exact agreement with
// Block.Active. Time advances monotonically, as the probing engine drives
// the cache, but includes sub-round offsets so event edges, renumber gaps,
// and dormancy epoch boundaries are crossed at odd seconds.
func TestActiveCacheEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 0xdead, 9999} {
		b := richBlock(t, seed)
		ac := b.NewActiveCache()
		start := Date(2020, time.January, 1)
		end := start + 60*SecondsPerDay
		step := int64(RoundSeconds)
		n := 0
		for tm := start; tm < end; tm += step {
			// Sub-step offsets hit second-granularity boundaries.
			for _, off := range []int64{0, 1, 299} {
				at := tm + off
				for addr := 0; addr < 256; addr += 3 {
					got := ac.Active(addr, at)
					want := b.Active(addr, at)
					if got != want {
						t.Fatalf("seed %d addr %d t %d: cache=%v direct=%v", seed, addr, at, got, want)
					}
					n++
				}
			}
		}
		if n == 0 {
			t.Fatal("no comparisons ran")
		}
	}
}

// TestActiveCacheNonMonotonic drives the cache with out-of-order
// timestamps: correctness must not depend on the monotonic access pattern
// the engine happens to use.
func TestActiveCacheNonMonotonic(t *testing.T) {
	b := richBlock(t, 42)
	ac := b.NewActiveCache()
	start := Date(2020, time.January, 1)
	rng := NewRNG(7)
	for i := 0; i < 20000; i++ {
		at := start + int64(rng.Intn(60*SecondsPerDay))
		addr := rng.Intn(256)
		if got, want := ac.Active(addr, at), b.Active(addr, at); got != want {
			t.Fatalf("addr %d t %d: cache=%v direct=%v", addr, at, got, want)
		}
	}
}

// TestActiveCacheManyEvents pushes an event class past the 64-bit mask
// width and checks the fallback path still answers correctly.
func TestActiveCacheManyEvents(t *testing.T) {
	b, err := NewBlock(1, 3, Spec{Workers: 100, Homes: 50})
	if err != nil {
		t.Fatal(err)
	}
	start := Date(2020, time.March, 1)
	for i := 0; i < 70; i++ {
		b.AddEvent(Event{Kind: EventHoliday, Start: start + int64(i)*SecondsPerDay, End: start + int64(i)*SecondsPerDay + 12*3600, Adoption: 0.5})
	}
	ac := b.NewActiveCache()
	if !ac.direct {
		t.Fatal("expected direct fallback with >64 holiday events")
	}
	for tm := start; tm < start+5*SecondsPerDay; tm += 1800 {
		for addr := 0; addr < 256; addr += 7 {
			if got, want := ac.Active(addr, tm), b.Active(addr, tm); got != want {
				t.Fatalf("addr %d t %d: cache=%v direct=%v", addr, tm, got, want)
			}
		}
	}
}

// TestActiveCacheCountActive checks the convenience counter against the
// block's ground-truth scan.
func TestActiveCacheCountActive(t *testing.T) {
	b := richBlock(t, 5)
	ac := b.NewActiveCache()
	start := Date(2020, time.February, 1)
	for tm := start; tm < start+2*SecondsPerDay; tm += 3600 {
		if got, want := ac.CountActive(tm), b.CountActive(tm); got != want {
			t.Fatalf("t %d: cache count %d, direct %d", tm, got, want)
		}
	}
}

// CountActive is Block.CountActive through the cache.
func (c *ActiveCache) CountActive(t int64) int {
	n := 0
	for a := 0; a < 256; a++ {
		if c.Active(a, t) {
			n++
		}
	}
	return n
}
