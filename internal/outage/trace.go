package outage

import (
	"encoding/binary"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// Trace is a detector's input kept compactly for a later run: the
// timestamp of every run of equal ones as a signed varint delta from the
// run before, and two bits per record — whether it answered, and whether
// it opens a run. Replay hands the records back to ObserveAll, so a belief
// that must re-run over a stream it has already seen (its availability is
// the whole stream's reply rate) needs neither the records nor an update
// loop of its own. The zero value is an empty trace.
//
// A trace also carries a certificate: which of its stretches can change a
// detector whose availability lies in a small interval, so that Replay
// re-runs only those. A replay that the certificate does not cover runs
// in full and certifies the trace around its detector's availability;
// Append carries the certificate over the records it adds, and Reset drops
// it. See certificate for the rule and why it is exact.
type Trace struct {
	times     []byte
	up, opens []uint64
	n, nUp    int
	lastT     int64
	cert      certificate
	// certs and skipped count the certifications Replay ran and the
	// records certified replays skipped, since the trace was made.
	certs, skipped int
}

// traceChunk is how many records Replay decodes per ObserveAll call.
const traceChunk = 1024

// mark is a position in a trace: the index of the next record, and the
// decoder's state before it — the offset of the next timestamp delta in
// times and the timestamp of the run before.
type mark struct {
	i, off int
	t      int64
}

// span is the records [from.i, to) of a trace.
type span struct {
	from mark
	to   int
}

// Len returns how many records the trace holds and how many of them
// answered.
func (t *Trace) Len() (records, responsive int) { return t.n, t.nUp }

// Certified returns how many certifications the trace's replays have run
// and how many records certified replays have skipped. Reset keeps both
// counts.
func (t *Trace) Certified() (certifications, skipped int) { return t.certs, t.skipped }

// Reset empties the trace and drops its certificate, keeping its storage.
func (t *Trace) Reset() {
	*t = Trace{
		times: t.times[:0], up: t.up[:0], opens: t.opens[:0],
		cert:  certificate{loud: t.cert.loud[:0]},
		certs: t.certs, skipped: t.skipped,
	}
}

// Append adds records, in order, to the end of the trace.
func (t *Trace) Append(records []probe.Record) {
	c := &t.cert
	for _, r := range records {
		w, bit := t.n/64, uint64(1)<<(t.n%64)
		if bit == 1 {
			t.up = append(t.up, 0)
			t.opens = append(t.opens, 0)
		}
		if t.n == 0 || r.T != t.lastT {
			t.times = binary.AppendVarint(t.times, r.T-t.lastT)
			t.lastT = r.T
			t.opens[w] |= bit
		}
		if r.Up {
			t.up[w] |= bit
			t.nUp++
		}
		t.n++
		if c.ok {
			c.observe(r.Up, mark{t.n, len(t.times), t.lastT})
		}
	}
}

// Replay observes every record of the trace with d, in order, decoding
// them a chunk at a time into buf, which it returns for reuse. When the
// certificate covers d and d sits at its belief ceiling in state Up, as a
// new detector does, Replay observes only the certificate's loud segments
// and the records after its last anchor, which leaves d exactly where
// observing every record would. Otherwise it observes every record and
// certifies the trace around d's availability.
func (t *Trace) Replay(d *Detector, buf []probe.Record) []probe.Record {
	if cap(buf) < traceChunk {
		buf = make([]probe.Record, 0, traceChunk)
	}
	c := &t.cert
	covered := c.covers(d)
	if covered && d.belief == d.params.BeliefCeiling && d.state == Up {
		walked := 0
		for _, s := range c.loud {
			buf = t.replay(d, buf, s.from, s.to, nil)
			walked += s.to - s.from.i
		}
		t.skipped += c.tail.i - walked
		return t.replay(d, buf, c.tail, t.n, nil)
	}
	var walk *certificate
	if !covered && c.begin(d.availability, d.params) {
		walk = c
		t.certs++
	}
	return t.replay(d, buf, mark{}, t.n, walk)
}

// replay observes the records [from.i, to) with d, decoding from the mark
// from, and walks them with walk too when it is not nil.
func (t *Trace) replay(d *Detector, buf []probe.Record, from mark, to int, walk *certificate) []probe.Record {
	buf = buf[:0]
	tm, off := from.t, from.off
	for i := from.i; i < to; i++ {
		w, bit := i/64, uint64(1)<<(i%64)
		if t.opens[w]&bit != 0 {
			delta, k := binary.Varint(t.times[off:])
			tm += delta
			off += k
		}
		up := t.up[w]&bit != 0
		buf = append(buf, probe.Record{T: tm, Up: up})
		if walk != nil {
			walk.observe(up, mark{i + 1, off, tm})
		}
		if len(buf) == traceChunk {
			d.ObserveAll(buf)
			buf = buf[:0]
		}
	}
	d.ObserveAll(buf)
	return buf[:0]
}

const (
	// certWidth is δ: a certificate made at availability a covers the
	// detector availabilities in a·(1 ± δ), within the detector's clamp.
	certWidth = 0.03
	// certMargin is how far past the ceiling the bound must step for an
	// anchor, and past the down threshold it must stay for a quiet
	// segment, as a fraction of either.
	certMargin = 1e-6
	// certSegment caps how many records the bound walks between exact
	// starts: the segment that reaches it counts as loud, and the bound
	// restarts at the belief floor.
	certSegment = 1 << 16
	// certDrift bounds, in units of the belief's log-odds times
	// (1 - ceiling·(1+certMargin)), how far one record moves the bound and
	// a detector apart through rounding.
	certDrift = 16 * 0x1p-53
)

// certificate marks which stretches of a trace can change a detector whose
// availability is in [lo, hi] and whose parameters are params.
//
// The bound. L runs the detector's update (the same update, clamped to the
// same caps) with lo on replies and hi on non-replies. A reply's step
// grows with the availability and a non-reply's shrinks with it, and both
// grow with the belief, so L is the most pessimistic belief any covered
// detector can hold: L ≤ B for every a in [lo, hi]. An anchor is a reply
// at which L, before clamping, reaches ceiling·(1+certMargin): every
// covered detector's belief is then clamped to exactly the ceiling, in
// state Up (certifiable requires UpThreshold ≤ ceiling). The trace start
// is an anchor too, for a detector that starts there. A segment — the
// records after one anchor up to and including the next — is quiet when L
// stays above DownThreshold·(1+certMargin) throughout: no covered
// detector goes Down in it, so it opens or closes no outage and ends where
// it began, at the ceiling in state Up. Any other segment is loud, and the
// records after the last anchor are the tail. Replaying only the loud
// segments and the tail therefore leaves a detector that starts at the
// ceiling in state Up bit for bit where replaying every record would.
//
// Rounding. L ≤ B holds for the exact updates, not for their rounded
// values; in log-odds λ = ln(B/(1-B)) it is the margin that absorbs the
// difference. An exact update adds ln(pUp/pDown) to λ, and the detector's
// ratio is at least L's (a ≥ lo; 1-a ≥ 1-hi, rounding being monotone).
// One rounded update is the exact one times (1+θ), |θ| ≤ 6·2⁻⁵³ (five
// roundings; 1-b is exact for b ≥ ½), which moves λ by θ/(1-b'), and b' ≤
// ceiling·(1+certMargin) wherever it matters (past that, both clamp to the
// ceiling). The caps only bring the two closer. So after k records from a
// common start, λ(B) ≥ λ(L) - k·certDrift/(1 - ceiling·(1+certMargin)).
// The starts are exact: both at the ceiling after an anchor, or L at the
// floor, which no detector goes below, after certSegment records. The
// margin is worth at least ln(1+certMargin) in λ at both tests, and
// certifiable requires the drift over certSegment records to stay below
// half of certMargin — with the default parameters it is 1.2·10⁻⁸ against
// 5·10⁻⁷.
type certificate struct {
	ok     bool
	params Params
	lo, hi float64
	// notHi and notEps are the likelihoods of a non-reply at hi.
	notHi, notEps float64
	// anchorAt and quietAbove are the two tests' thresholds; satAnchor is
	// whether a reply at the ceiling anchors.
	anchorAt, quietAbove float64
	satAnchor            bool
	// bound is L after the trace's last record, since the number of
	// records walked since the last exact start, and quiet whether the
	// segment after the last anchor has stayed quiet so far.
	bound float64
	since int
	quiet bool
	// tail is the mark after the last anchor, where the tail starts; loud
	// holds the loud segments before it, in order, adjacent ones merged.
	tail mark
	loud []span
}

// certifiable reports whether a certificate can be exact for a detector
// with params p (defaulted): likelihoods strictly inside (0, 1), caps
// inside (0, 1) with room above the ceiling for the anchor margin, the
// ceiling in state Up, and the rounding drift within the margin.
func certifiable(p Params) bool {
	eps, floor, ceil := p.LieProbability, p.BeliefFloor, p.BeliefCeiling
	if !(eps > 0 && eps < 1 && floor > 0 && floor <= ceil && p.UpThreshold <= ceil) {
		return false
	}
	room := 1 - ceil*(1+certMargin)
	return room > 0 && certSegment*certDrift/room <= certMargin/2
}

// begin starts a certificate for availability a (clamped) and params p at
// the trace's start, keeping the loud list's storage. It reports whether
// the parameters can be certified at all.
func (c *certificate) begin(a float64, p Params) bool {
	loud := c.loud[:0]
	if !certifiable(p) {
		*c = certificate{loud: loud}
		return false
	}
	lo := max(a*(1-certWidth), minAvailability)
	hi := min(a*(1+certWidth), maxAvailability)
	*c = certificate{
		ok: true, params: p, lo: lo, hi: hi,
		notHi: 1 - hi, notEps: 1 - p.LieProbability,
		anchorAt:   p.BeliefCeiling * (1 + certMargin),
		quietAbove: p.DownThreshold * (1 + certMargin),
		bound:      p.BeliefCeiling,
		quiet:      true,
		loud:       loud,
	}
	c.satAnchor = update(p.BeliefCeiling, lo, p.LieProbability) >= c.anchorAt
	return true
}

// covers reports whether the certificate holds for detector d.
func (c *certificate) covers(d *Detector) bool {
	return c.ok && d.params == c.params && d.availability >= c.lo && d.availability <= c.hi
}

// observe walks the bound over the next record, whether it answered, and
// next, the mark after it.
func (c *certificate) observe(up bool, next mark) {
	p := &c.params
	var b float64
	if up {
		if c.satAnchor && c.bound == p.BeliefCeiling {
			c.anchor(next)
			return
		}
		if b = update(c.bound, c.lo, p.LieProbability); b >= c.anchorAt {
			c.anchor(next)
			return
		}
	} else {
		b = update(c.bound, c.notHi, c.notEps)
	}
	if b < p.BeliefFloor {
		b = p.BeliefFloor
	}
	if b > p.BeliefCeiling {
		b = p.BeliefCeiling
	}
	if b <= c.quietAbove {
		c.quiet = false
	}
	if c.since++; c.since == certSegment {
		b, c.since, c.quiet = p.BeliefFloor, 0, false
	}
	c.bound = b
}

// anchor closes the segment ending at the record before next.
func (c *certificate) anchor(next mark) {
	if !c.quiet {
		if k := len(c.loud) - 1; k >= 0 && c.loud[k].to == c.tail.i {
			c.loud[k].to = next.i
		} else {
			c.loud = append(c.loud, span{c.tail, next.i})
		}
	}
	c.tail, c.bound, c.since, c.quiet = next, c.params.BeliefCeiling, 0, true
}
