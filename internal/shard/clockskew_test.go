package shard

// Lease correctness under clock skew. Lease expiry is compared against
// wall clocks that different workers read independently, so a worker with
// broken NTP is the realistic threat: a skewed-but-renewing worker must
// never be fenced out from under its live lease, a crashed worker's lease
// must expire on schedule no matter how skewed the writer was, and a
// worker whose clock steps backward must discover its self-inflicted
// fencing through Check instead of journaling blindly.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/health"
)

const skewTTL = 30 * time.Second

// skewLedger opens a second handle on an existing ledger directory with
// its own (skewed) clock, modeling a different machine.
func skewLedger(t *testing.T, dir string, sig []byte, clock health.Clock) *Ledger {
	t.Helper()
	l, err := Open(dir, sig, Options{TTL: skewTTL, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestSkewedWorkerNeverWronglyFenced: a worker whose clock is off by a
// constant offset and a rate error, but which renews on schedule, holds
// its lease indefinitely against a true-clocked rival.
func TestSkewedWorkerNeverWronglyFenced(t *testing.T) {
	for _, tc := range []struct {
		name   string
		offset time.Duration
		drift  float64
	}{
		{"slow", -skewTTL / 3, 0},
		{"fast", skewTTL / 3, 0},
		{"slow-drifting", -5 * time.Second, -1e-3},
		{"fast-drifting", 5 * time.Second, 1e-3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sig := []byte("skew-test")
			base := health.NewFake()
			truth, err := Create(dir, sig, 4, 2, Options{TTL: skewTTL, Clock: base})
			if err != nil {
				t.Fatal(err)
			}
			skewed := skewLedger(t, dir, sig, &skewedClock{Base: base, Offset: tc.offset, Drift: tc.drift})
			claim, err := skewed.tryClaim(skewed.man.Shards[0], "skewed")
			if err != nil || claim == nil {
				t.Fatalf("initial claim: %v, %v", claim, err)
			}
			// Renew at the worker's TTL/3 cadence for many cycles; the
			// rival scans between every renewal.
			for i := 0; i < 30; i++ {
				base.Advance(skewTTL / 3)
				if rival, err := truth.tryClaim(truth.man.Shards[0], "truth"); err != nil || rival != nil {
					t.Fatalf("cycle %d: live skewed lease was claimed by rival (%v, %v)", i, rival, err)
				}
				if err := claim.Check(); err != nil {
					t.Fatalf("cycle %d: live skewed worker fenced: %v", i, err)
				}
				if err := claim.Renew(); err != nil {
					t.Fatalf("cycle %d: renew failed: %v", i, err)
				}
			}
		})
	}
}

// TestExpiredLeaseAlwaysFenced: a crashed worker's lease expires and is
// taken over regardless of the skew it wrote its expiry with, and the
// ghost discovers the fencing through Check and Renew.
func TestExpiredLeaseAlwaysFenced(t *testing.T) {
	for _, tc := range []struct {
		name   string
		offset time.Duration
	}{
		{"slow-writer", -10 * time.Second},
		{"true-writer", 0},
		{"fast-writer", 10 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sig := []byte("skew-test")
			base := health.NewFake()
			truth, err := Create(dir, sig, 4, 2, Options{TTL: skewTTL, Clock: base})
			if err != nil {
				t.Fatal(err)
			}
			skewed := skewLedger(t, dir, sig, &skewedClock{Base: base, Offset: tc.offset})
			ghost, err := skewed.tryClaim(skewed.man.Shards[0], "ghost")
			if err != nil || ghost == nil {
				t.Fatalf("initial claim: %v, %v", ghost, err)
			}
			// The ghost wrote Expires = skewedNow + TTL, i.e. offset + TTL
			// in true time. One second before that: no takeover.
			base.Advance(skewTTL + tc.offset - time.Second)
			if rival, err := truth.tryClaim(truth.man.Shards[0], "truth"); err != nil || rival != nil {
				t.Fatalf("unexpired lease claimed early (%v, %v)", rival, err)
			}
			// Past the skewed expiry: the takeover must happen.
			base.Advance(2 * time.Second)
			rival, err := truth.tryClaim(truth.man.Shards[0], "truth")
			if err != nil || rival == nil {
				t.Fatalf("expired lease not claimed (%v, %v)", rival, err)
			}
			if rival.Token <= ghost.Token {
				t.Fatalf("takeover token %d not above ghost token %d", rival.Token, ghost.Token)
			}
			if err := ghost.Check(); !errors.Is(err, core.ErrFenced) {
				t.Errorf("ghost Check = %v, want ErrFenced", err)
			}
			if err := ghost.Renew(); !errors.Is(err, core.ErrFenced) {
				t.Errorf("ghost Renew = %v, want ErrFenced", err)
			}
		})
	}
}

// TestBackwardJumpSelfFences: a worker whose clock steps backward writes
// an already-expired renewal; it loses the shard (correct — its expiry
// promise is broken) but must learn that through Check, which is exactly
// the journal Fence hook's consultation point.
func TestBackwardJumpSelfFences(t *testing.T) {
	dir := t.TempDir()
	sig := []byte("skew-test")
	base := health.NewFake()
	truth, err := Create(dir, sig, 4, 2, Options{TTL: skewTTL, Clock: base})
	if err != nil {
		t.Fatal(err)
	}
	jumpy := skewLedger(t, dir, sig, &skewedClock{
		Base:  base,
		Jumps: []clockJump{{After: 15 * time.Second, Delta: -2 * time.Minute}},
	})
	claim, err := jumpy.tryClaim(jumpy.man.Shards[0], "jumpy")
	if err != nil || claim == nil {
		t.Fatalf("initial claim: %v, %v", claim, err)
	}
	base.Advance(10 * time.Second) // pre-jump: renewal is healthy
	if err := claim.Renew(); err != nil {
		t.Fatal(err)
	}
	if rival, err := truth.tryClaim(truth.man.Shards[0], "truth"); err != nil || rival != nil {
		t.Fatalf("healthy lease claimed (%v, %v)", rival, err)
	}
	base.Advance(10 * time.Second) // jump fires: the clock is now 2 min behind
	if err := claim.Renew(); err != nil {
		t.Fatal(err) // renewal succeeds but writes an expiry in the past
	}
	rival, err := truth.tryClaim(truth.man.Shards[0], "truth")
	if err != nil || rival == nil {
		t.Fatalf("backdated lease not claimable (%v, %v)", rival, err)
	}
	if err := claim.Check(); !errors.Is(err, core.ErrFenced) {
		t.Errorf("jumped worker Check = %v, want ErrFenced so late appends are blocked", err)
	}
}

// clockJump is a step change in a skewed clock's wall time, applied once
// the base clock has run After past the clock's first use.
type clockJump struct {
	After time.Duration
	Delta time.Duration
}

// skewedClock models a machine whose wall clock is wrong: a constant
// offset, a rate error (broken NTP slewing), and scheduled step changes
// (an NTP slam or a VM migration). It is a health.Clock, so a ledger
// handle can run against a skewed view of time while the rest of the
// test drives a shared base clock. The zero value reads the system clock
// unskewed; set the fields before first use and do not change them after.
type skewedClock struct {
	// Base supplies real time (default health.System; tests use
	// health.Fake so skew scenarios are deterministic).
	Base health.Clock
	// Offset is added to every reading.
	Offset time.Duration
	// Drift is the rate error in seconds gained per base second (1e-4 ≈
	// 8.6 s/day fast; negative runs slow). It accrues from first use.
	Drift float64
	// Jumps are step changes applied in addition to Offset and Drift.
	Jumps []clockJump

	mu       sync.Mutex
	anchor   time.Time
	anchored bool
}

func (c *skewedClock) base() health.Clock {
	if c.Base != nil {
		return c.Base
	}
	return health.System
}

// Now returns the skewed wall time.
func (c *skewedClock) Now() time.Time {
	now := c.base().Now()
	c.mu.Lock()
	if !c.anchored {
		c.anchor, c.anchored = now, true
	}
	elapsed := now.Sub(c.anchor)
	c.mu.Unlock()
	skew := c.Offset + time.Duration(float64(elapsed)*c.Drift)
	for _, j := range c.Jumps {
		if elapsed >= j.After {
			skew += j.Delta
		}
	}
	return now.Add(skew)
}

// After returns a timer channel. Like real timers, it runs on the
// monotonic clock: wall offset and jumps do not move in-flight timers,
// but a rate error does — a fast clock's d-second timer fires after only
// d/(1+Drift) base seconds.
func (c *skewedClock) After(d time.Duration) <-chan time.Time {
	if c.Drift != 0 && d > 0 {
		d = time.Duration(float64(d) / (1 + c.Drift))
	}
	return c.base().After(d)
}

func TestClockOffsetDriftJumps(t *testing.T) {
	base := health.NewFake()
	c := &skewedClock{
		Base:   base,
		Offset: 5 * time.Second,
		Drift:  0.1, // 10% fast
		Jumps:  []clockJump{{After: 100 * time.Second, Delta: -30 * time.Second}},
	}
	t0 := c.Now() // anchors drift accrual
	if got, want := t0.Sub(base.Now()), 5*time.Second; got != want {
		t.Fatalf("initial skew %v, want %v", got, want)
	}
	base.Advance(50 * time.Second)
	if got, want := c.Now().Sub(base.Now()), 5*time.Second+5*time.Second; got != want {
		t.Errorf("skew after 50s %v, want %v (offset + 10%% drift)", got, want)
	}
	base.Advance(50 * time.Second) // total elapsed 100s: jump applies
	if got, want := c.Now().Sub(base.Now()), 15*time.Second-30*time.Second; got != want {
		t.Errorf("skew after jump %v, want %v", got, want)
	}
}

func TestClockZeroValueIsUnskewed(t *testing.T) {
	var c skewedClock
	d := time.Since(c.Now())
	if d < -time.Second || d > time.Second {
		t.Errorf("zero-value clock far from system time: %v", d)
	}
}

// TestClockAfterDriftScaling: a fast clock's timers fire early in base
// time, a slow clock's late; offset and jumps leave timers alone.
func TestClockAfterDriftScaling(t *testing.T) {
	base := health.NewFake()
	fast := &skewedClock{Base: base, Drift: 1.0, Offset: time.Hour} // 2x speed
	ch := fast.After(10 * time.Second)
	base.Advance(4 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired too early")
	default:
	}
	base.Advance(1 * time.Second) // 5 base seconds = 10 fast seconds
	select {
	case <-ch:
	default:
		t.Fatal("timer did not fire at scaled deadline")
	}
}
