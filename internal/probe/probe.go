// Package probe implements a Trinocular-style active prober over the
// synthetic Internet of internal/netsim, reproducing the measurement
// substrate of the paper's §2.2: each observer probes a block's
// ever-active target list E(b) every 11 minutes in a pseudorandom order
// that is fixed per quarter and shared by all observers, stops after the
// first positive response (probing 1..16 targets per round), and runs
// unsynchronized with the other observers. It also implements the
// "additional observations" prober of §2.8 (up to four extra probes per
// round, even after a positive) and per-link congestive loss (§3.3), plus
// the full-scan survey mode used as ground truth (§3.2).
package probe

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/diurnalnet/diurnal/internal/netsim"
)

const saltLoss uint64 = 0x10c1

// maxPerRound is Trinocular's per-round probe budget.
const maxPerRound = 16

// lossPeakSecond is the local second-of-day of a congested link's peak
// loss, 20:00.
const lossPeakSecond = 20 * 3600

// LossModel describes congestive loss on an observer's upstream link. A
// probe (or its response) crossing the link is dropped independently with
// probability Base plus a diurnal component that peaks during the link's
// local evening busy hours — the pathology §3.3 diagnoses for observer w.
// Engine.Validate requires Base and DiurnalAmp in [0, 1].
type LossModel struct {
	// Base is the time-independent loss probability.
	Base float64
	// DiurnalAmp is the peak additional loss probability at the busiest
	// local hour.
	DiurnalAmp float64
	// TZOffset is the link's local-time offset east of UTC in seconds.
	TZOffset int64
	// Match restricts the loss to some destinations (the paper saw loss
	// from observer w to "about one-quarter of Chinese destinations").
	// Nil means all destinations. It must be a pure function of the block
	// ID: the engine consults it once per block collection, not per probe.
	Match func(netsim.BlockID) bool
}

// Rate returns the loss probability for a probe to block id at time t.
func (l *LossModel) Rate(id netsim.BlockID, t int64) float64 {
	if l == nil {
		return 0
	}
	if l.Match != nil && !l.Match(id) {
		return 0
	}
	rate := l.Base
	if l.DiurnalAmp > 0 {
		sod := netsim.SecondOfDay(t + l.TZOffset)
		// Raised cosine centered on the peak hour.
		phase := 2 * math.Pi * float64(sod-lossPeakSecond) / float64(netsim.SecondsPerDay)
		rate += l.DiurnalAmp * (1 + math.Cos(phase)) / 2
	}
	if rate > 1 {
		rate = 1
	}
	return rate
}

// Observer is one probing site (the paper's sites c, e, g, j, n, w).
type Observer struct {
	// Name identifies the site ("w", "e", ...).
	Name string
	// Seed drives this observer's loss coin flips.
	Seed uint64
	// Phase is the offset of this observer's round start within the
	// 11-minute cycle, in seconds, in [0, RoundSeconds). Observers "start
	// independently and run unsynchronized" (§2.7); round k probes at
	// start + Phase + k*RoundSeconds.
	Phase int64
	// Extra is the number of additional probes sent per round even after
	// a positive response — zero for standard Trinocular, up to 4 for the
	// §2.8 designed observer.
	Extra int
	// Loss, when non-nil, injects congestive loss on this observer's
	// upstream link.
	Loss *LossModel
	// Down, when non-nil, reports whether the observer is offline at time
	// t. Offline rounds produce no records at all — the hardware-failure
	// downtime that silenced the paper's sites c and g in 2020 (§2.7).
	// internal/faults supplies implementations.
	Down func(t int64) bool
	// ExtraLoss, when non-nil, is consulted per probe in addition to Loss
	// and drops the probe (or its reply) when it returns true. It sees the
	// destination block, probe time, and target address; internal/faults
	// uses it for bursty Gilbert–Elliott link loss. Calls for one observer
	// arrive in nondecreasing time order, so implementations may carry
	// channel state across calls.
	ExtraLoss func(id netsim.BlockID, t int64, addr int) bool
}

// Record is a single probe observation: at time T, address Addr of the
// probed block either responded (Up) or did not.
type Record struct {
	T    int64
	Addr uint8
	Up   bool
}

// Engine probes blocks with a set of observers over a time window.
type Engine struct {
	// Observers probe in parallel; at least one is required.
	Observers []Observer
	// QuarterSeed fixes the per-quarter pseudorandom probe order shared
	// by all observers (§2.2).
	QuarterSeed uint64
}

// Validate checks the engine configuration.
func (e *Engine) Validate() error {
	if len(e.Observers) == 0 {
		return fmt.Errorf("probe: no observers")
	}
	for i, o := range e.Observers {
		if o.Extra < 0 {
			return fmt.Errorf("probe: observer %d (%s) has negative budget", i, o.Name)
		}
		if o.Phase < 0 || o.Phase >= netsim.RoundSeconds {
			return fmt.Errorf("probe: observer %d (%s) phase %d outside [0,%d)", i, o.Name, o.Phase, netsim.RoundSeconds)
		}
		if l := o.Loss; l != nil && !(l.Base >= 0 && l.Base <= 1 && l.DiurnalAmp >= 0 && l.DiurnalAmp <= 1) {
			return fmt.Errorf("probe: observer %d (%s) loss base %g / diurnal amplitude %g outside [0,1]", i, o.Name, l.Base, l.DiurnalAmp)
		}
	}
	return nil
}

// Order returns the per-quarter pseudorandom probing order over the
// block's E(b) target list. All observers share it.
func (e *Engine) Order(b *netsim.Block) []int {
	targets := b.EverActive()
	rng := netsim.NewRNG(netsim.Hash64(e.QuarterSeed, uint64(b.ID)))
	perm := rng.Perm(len(targets))
	order := make([]int, len(targets))
	for i, p := range perm {
		order[i] = targets[p]
	}
	return order
}

// dayRounds is the number of rounds after which a fixed round schedule
// repeats its second of day: SecondsPerDay / gcd(RoundSeconds,
// SecondsPerDay).
var dayRounds = func() int64 {
	a, b := int64(netsim.RoundSeconds), int64(netsim.SecondsPerDay)
	for b != 0 {
		a, b = b, a%b
	}
	return netsim.SecondsPerDay / a
}()

// prober is one observer's state over one collection.
type prober struct {
	o      *Observer
	oi     int       // index into Engine.Observers and the record buffers
	cursor int       // next position in the shared probing order
	budget int       // probes per round: maxPerRound + Extra, capped at |E(b)|
	rate   []float64 // Loss.table for this block and window
}

// Collect runs the engine and gathers per-observer record slices, a
// convenience for tests and small experiments. Hot paths that process many
// blocks should use CollectInto to reuse buffers.
func (e *Engine) Collect(b *netsim.Block, start, end int64) ([][]Record, error) {
	return e.CollectInto(context.Background(), b, start, end, nil)
}

// CollectInto is Collect with caller-provided buffers and cancellation:
// each bufs[i] is truncated and reused, avoiding per-block allocation
// churn in world-scale runs. bufs may be nil or shorter than the observer
// count. When ctx is canceled mid-collection the partial buffers are
// returned along with ctx.Err().
//
// Validate keeps every Phase inside [0, RoundSeconds), so round k of every
// observer precedes round k+1 of any observer, and within round k the
// observers go in (Phase, index) order: a rotation sorted once.
func (e *Engine) CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]Record) ([][]Record, error) {
	for len(bufs) < len(e.Observers) {
		bufs = append(bufs, nil)
	}
	bufs = bufs[:len(e.Observers)]
	for i := range bufs {
		bufs[i] = bufs[i][:0]
	}
	if err := e.Validate(); err != nil {
		return bufs, err
	}
	if end <= start {
		return bufs, fmt.Errorf("probe: empty window [%d,%d)", start, end)
	}
	order := e.Order(b)
	if len(order) == 0 {
		return bufs, nil // nothing ever responded: Trinocular drops such blocks
	}
	// One ActiveCache per collection: rounds replay the same timestamps
	// and days many times over, so the memoized address state answers most
	// probes without re-hashing (bit-identical to Block.Active).
	ac := b.NewActiveCache()
	ps := make([]prober, len(e.Observers))
	for i := range e.Observers {
		o := &e.Observers[i]
		budget := min(maxPerRound+o.Extra, len(order))
		// Observers run unsynchronized (§2.7): besides the phase offset,
		// each starts at a different point of the shared probing order, so
		// their coverage of always-responding blocks interleaves instead
		// of marching in lockstep.
		ps[i] = prober{o: o, oi: i, cursor: i * len(order) / len(e.Observers), budget: budget}
		ps[i].rate = o.Loss.table(b.ID, start+o.Phase, end)
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].o.Phase < ps[j].o.Phase })
	n := 0
	slot := int64(0) // k mod dayRounds
	for k := int64(0); ; k++ {
		base := start + k*netsim.RoundSeconds
		for i := range ps {
			p := &ps[i]
			t := base + p.o.Phase
			if t >= end {
				if i == 0 {
					return bufs, nil
				}
				break
			}
			// Check for cancellation every few rounds: often enough that a
			// killed run stops within milliseconds, rarely enough that the
			// ctx mutex stays off the probing hot path.
			if n++; n&0x3f == 0 && ctx.Err() != nil {
				return bufs, ctx.Err()
			}
			if p.o.Down == nil || !p.o.Down(t) {
				bufs[p.oi] = p.round(ac, b.ID, t, slot, order, bufs[p.oi])
			}
		}
		if slot++; slot == dayRounds {
			slot = 0
		}
	}
}

// table returns Rate for round k = 0, 1, ... of the rounds at first +
// k*RoundSeconds before end, at index k mod dayRounds (the table repeats
// with the second of day); nil when l drops nothing to block id. Match is
// consulted once, and every entry comes from Rate itself, bit for bit.
func (l *LossModel) table(id netsim.BlockID, first, end int64) []float64 {
	if l == nil || (l.Match != nil && !l.Match(id)) || first >= end {
		return nil
	}
	unmatched := *l
	unmatched.Match = nil
	rate := make([]float64, min(dayRounds, (end-first+netsim.RoundSeconds-1)/netsim.RoundSeconds))
	for k := range rate {
		rate[k] = unmatched.Rate(id, first+int64(k)*netsim.RoundSeconds)
	}
	return rate
}

// round executes one round of one observer at time t, round number slot
// modulo dayRounds, and appends its records to buf: probe targets in the
// shared order until the first positive response, plus Extra additional
// probes, up to the budget.
func (p *prober) round(ac *netsim.ActiveCache, id netsim.BlockID, t, slot int64, order []int, buf []Record) []Record {
	o := p.o
	var rate float64
	if p.rate != nil {
		rate = p.rate[slot]
	}
	ac.At(t)
	cur := p.cursor
	sincePositive := -1
	for n := 0; n < p.budget; n++ {
		addr := order[cur]
		if cur++; cur == len(order) {
			cur = 0
		}
		up := ac.ActiveNow(addr)
		if up && rate > 0 && netsim.HashUnit(o.Seed, uint64(id), uint64(t), uint64(addr), saltLoss) < rate {
			up = false // the probe or its reply was lost in transit
		}
		if up && o.ExtraLoss != nil && o.ExtraLoss(id, t, addr) {
			up = false
		}
		buf = append(buf, Record{T: t, Addr: uint8(addr), Up: up})
		if up && sincePositive < 0 {
			sincePositive = 0
		} else if sincePositive >= 0 {
			sincePositive++
		}
		if sincePositive >= 0 && sincePositive >= o.Extra {
			break
		}
	}
	p.cursor = cur
	return buf
}

// Survey performs full scans: every address of E(b) is probed every round,
// with no loss and no adaptivity. This reproduces the USC Internet survey
// datasets (it89) the paper uses as reconstruction ground truth (§3.2).
func Survey(b *netsim.Block, start, end int64, fn func(r Record)) {
	targets := b.EverActive()
	ac := b.NewActiveCache()
	for t := start; t < end; t += netsim.RoundSeconds {
		for _, addr := range targets {
			fn(Record{T: t, Addr: uint8(addr), Up: ac.Active(addr, t)})
		}
	}
}

// StandardObservers returns n unsynchronized standard observers named
// after the paper's sites (w, e, j, n, c, g), with deterministic phases
// spread across the round.
func StandardObservers(n int) []Observer {
	names := []string{"w", "e", "j", "n", "c", "g"}
	if n > len(names) {
		n = len(names)
	}
	obs := make([]Observer, n)
	for i := 0; i < n; i++ {
		obs[i] = Observer{
			Name:  names[i],
			Seed:  netsim.Hash64(uint64(i) + 101),
			Phase: int64(i) * netsim.RoundSeconds / int64(len(names)),
		}
	}
	return obs
}

// Names returns the observer names in engine order, for labeling
// per-observer diagnostics (health scores, breaker transitions) in
// reports. Unnamed observers render as their index.
func (e *Engine) Names() []string {
	names := make([]string, len(e.Observers))
	for i, o := range e.Observers {
		if o.Name != "" {
			names[i] = o.Name
		} else {
			names[i] = fmt.Sprintf("#%d", i)
		}
	}
	return names
}
