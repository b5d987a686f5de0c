// Package outage implements Trinocular's Bayesian outage detection (Quan,
// Heidemann, Pradkin, SIGCOMM 2013), the system whose probing data the
// paper reuses. Each /24 block carries a belief B = P(block is up) that is
// updated per probe: a positive reply is strong evidence the block is up,
// a non-reply is weak evidence it is down, weighted by the block's
// expected availability A(E(b)). The paper's change pipeline consults
// these detections to discard changes caused by outages rather than by
// human activity (§2.6: "We can filter out such events by comparing them
// with outage detections").
package outage

import (
	"encoding/binary"
	"fmt"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// State is the detector's ternary block state.
type State int

const (
	// Unknown means the belief is between the decision thresholds.
	Unknown State = iota
	// Up means belief >= UpThreshold.
	Up
	// Down means belief <= DownThreshold: the block is in an outage.
	Down
)

// String names the state.
func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Down:
		return "down"
	default:
		return "unknown"
	}
}

// Params tunes the Bayesian update. Zero values take Trinocular's
// published constants.
type Params struct {
	// UpThreshold and DownThreshold are the belief decision boundaries
	// (Trinocular uses 0.9 and 0.1).
	UpThreshold, DownThreshold float64
	// LieProbability is the probability of a positive reply from a down
	// block (spoofing, middleboxes); Trinocular's ε = 0.01.
	LieProbability float64
	// BeliefFloor and BeliefCeiling cap the accumulated evidence so the
	// detector can change its mind quickly (Trinocular caps odds).
	BeliefFloor, BeliefCeiling float64
}

func (p Params) withDefaults() Params {
	if p.UpThreshold == 0 {
		p.UpThreshold = 0.9
	}
	if p.DownThreshold == 0 {
		p.DownThreshold = 0.1
	}
	if p.LieProbability == 0 {
		p.LieProbability = 0.01
	}
	if p.BeliefFloor == 0 {
		p.BeliefFloor = 0.01
	}
	if p.BeliefCeiling == 0 {
		p.BeliefCeiling = 0.99
	}
	return p
}

// Interval is one detected outage: [Start, End) in Unix seconds. End is
// zero while the outage is still open at the end of observation.
type Interval struct {
	Start, End int64
}

// Covers reports whether t falls inside the interval (an open interval
// covers everything after Start).
func (iv Interval) Covers(t int64) bool {
	return t >= iv.Start && (iv.End == 0 || t < iv.End)
}

// Detector tracks one block's up/down belief over a probe stream.
type Detector struct {
	params Params
	// availability is A(E(b)): the probability that a probe to a random
	// ever-active address answers while the block is up.
	availability float64
	belief       float64
	state        State
	outages      []Interval
}

// NewDetector builds a detector for a block with the given expected
// availability (clamped into [0.05, 0.99]; Trinocular refuses to reason
// about blocks with lower A).
func NewDetector(availability float64, params Params) (*Detector, error) {
	// Small enough to inline, so a caller whose detector does not outlive
	// it (FromRecords, the analysis kernel once per block) keeps the
	// detector on its stack; init is the part too big for that.
	d := new(Detector)
	if err := d.init(availability, params); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Detector) init(availability float64, params Params) error {
	if availability <= 0 || availability > 1 {
		return fmt.Errorf("outage: availability %v outside (0,1]", availability)
	}
	if availability < 0.05 {
		availability = 0.05
	}
	if availability > 0.99 {
		availability = 0.99
	}
	p := params.withDefaults()
	if p.DownThreshold >= p.UpThreshold {
		return fmt.Errorf("outage: thresholds inverted (%v >= %v)", p.DownThreshold, p.UpThreshold)
	}
	*d = Detector{
		params:       p,
		availability: availability,
		belief:       p.BeliefCeiling, // blocks start presumed up
		state:        Up,
	}
	return nil
}

// Belief returns the current P(block up).
func (d *Detector) Belief() float64 { return d.belief }

// State returns the current decision.
func (d *Detector) State() State { return d.state }

// Observe updates the belief with one probe result at time t. Probe
// results must arrive in time order. It is ObserveAll over one record.
func (d *Detector) Observe(t int64, up bool) {
	one := [1]probe.Record{{T: t, Up: up}}
	d.ObserveAll(one[:])
}

// Outages returns the detected outage intervals so far. The last interval
// has End == 0 when the block is still down.
func (d *Detector) Outages() []Interval { return d.outages }

// FromRecords runs a detector over a merged, time-ordered record stream
// and returns the detected outages. availability is estimated from the
// stream itself when zero (mean reply rate, the long-term A estimate the
// paper describes in §2.8). The analysis kernel drives a Detector run by
// run instead; outside tests only the staged benchmark (bench/staged.go)
// calls this.
func FromRecords(records []probe.Record, availability float64, params Params) ([]Interval, error) {
	if len(records) == 0 {
		return nil, nil
	}
	if availability == 0 {
		up := 0
		for _, r := range records {
			if r.Up {
				up++
			}
		}
		availability = float64(up) / float64(len(records))
		if availability == 0 {
			return nil, nil // never-responsive block: nothing to detect
		}
	}
	d, err := NewDetector(availability, params)
	if err != nil {
		return nil, err
	}
	d.ObserveAll(records)
	return d.Outages(), nil
}

// ObserveAll updates the belief with a run of probe results, in order — the
// detector's one update loop: Observe and FromRecords drive it, and the
// analysis kernel hands it each equal-timestamp run of the merged stream as
// its walk produces it. The belief, state, and parameters are held in locals
// for the run: a world run pushes millions of records through the detector,
// and per-record pointer traffic was a measurable profile slice.
//
// Saturation fast path: when the belief sits exactly at a cap and the
// observation pushes further into it, the Bayesian update provably
// re-clamps to the same value (e.g. for positive evidence aB/(aB +
// eps(1-B)) >= B whenever a >= eps, including the den == 0 and cap == 1
// edge cases), so the division can be skipped. Long saturated runs —
// most of a healthy block's stream — reduce to the decision switch.
func (d *Detector) ObserveAll(records []probe.Record) {
	a := d.availability
	eps := d.params.LieProbability
	floor, ceil := d.params.BeliefFloor, d.params.BeliefCeiling
	upTh, downTh := d.params.UpThreshold, d.params.DownThreshold
	canSkip := a >= eps
	belief, state := d.belief, d.state
	for i := range records {
		r := &records[i]
		if !(canSkip && ((r.Up && belief == ceil) || (!r.Up && belief == floor))) {
			var pObsUp, pObsDown float64
			if r.Up {
				pObsUp, pObsDown = a, eps
			} else {
				pObsUp, pObsDown = 1-a, 1-eps
			}
			num := pObsUp * belief
			den := num + pObsDown*(1-belief)
			if den > 0 {
				belief = num / den
			}
			if belief < floor {
				belief = floor
			}
			if belief > ceil {
				belief = ceil
			}
		}
		switch {
		case belief >= upTh:
			if state == Down {
				d.outages[len(d.outages)-1].End = r.T
			}
			state = Up
		case belief <= downTh:
			if state != Down {
				d.outages = append(d.outages, Interval{Start: r.T})
			}
			state = Down
		}
	}
	d.belief, d.state = belief, state
}

// MaskChanges reports, for each change time, whether it falls within slop
// seconds of a detected outage interval — the §2.6 cross-check that
// separates network failures from human-activity changes.
func MaskChanges(times []int64, outages []Interval, slop int64) []bool {
	out := make([]bool, len(times))
	for i, t := range times {
		for _, iv := range outages {
			end := iv.End
			if end == 0 {
				end = t + slop + 1 // open outage covers everything after start
			}
			if t >= iv.Start-slop && t < end+slop {
				out[i] = true
				break
			}
		}
	}
	return out
}

// Trace is a detector's input kept compactly for a later run: the
// timestamp of every run of equal ones as a signed varint delta from the
// run before, and two bits per record — whether it answered, and whether
// it opens a run. Replay hands the records back to ObserveAll, so a belief
// that must re-run over a stream it has already seen (its availability is
// the whole stream's reply rate) needs neither the records nor an update
// loop of its own. The zero value is an empty trace.
type Trace struct {
	times     []byte
	up, opens []uint64
	n, nUp    int
	lastT     int64
}

// traceChunk is how many records Replay decodes per ObserveAll call.
const traceChunk = 1024

// Len returns how many records the trace holds and how many of them
// answered.
func (t *Trace) Len() (records, responsive int) { return t.n, t.nUp }

// Reset empties the trace, keeping its storage.
func (t *Trace) Reset() {
	*t = Trace{times: t.times[:0], up: t.up[:0], opens: t.opens[:0]}
}

// Append adds records, in order, to the end of the trace.
func (t *Trace) Append(records []probe.Record) {
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
	}
}

// Replay observes every record of the trace with d, in order, decoding
// them a chunk at a time into buf, which it returns for reuse.
func (t *Trace) Replay(d *Detector, buf []probe.Record) []probe.Record {
	if cap(buf) < traceChunk {
		buf = make([]probe.Record, 0, traceChunk)
	}
	buf = buf[:0]
	var tm int64
	off := 0
	for i := 0; i < t.n; i++ {
		w, bit := i/64, uint64(1)<<(i%64)
		if t.opens[w]&bit != 0 {
			delta, k := binary.Varint(t.times[off:])
			tm += delta
			off += k
		}
		buf = append(buf, probe.Record{T: tm, Up: t.up[w]&bit != 0})
		if len(buf) == traceChunk {
			d.ObserveAll(buf)
			buf = buf[:0]
		}
	}
	d.ObserveAll(buf)
	return buf[:0]
}
