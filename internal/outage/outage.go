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

// minAvailability and maxAvailability bound the availability a detector
// reasons with (see NewDetector).
const minAvailability, maxAvailability = 0.05, 0.99

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
	availability = min(max(availability, minAvailability), maxAvailability)
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
// detector's one update loop: FromRecords drives it, and the
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
	notA, notEps := 1-a, 1-eps
	floor, ceil := d.params.BeliefFloor, d.params.BeliefCeiling
	upTh, downTh := d.params.UpThreshold, d.params.DownThreshold
	canSkip := a >= eps
	belief, state := d.belief, d.state
	for i := range records {
		r := &records[i]
		if !(canSkip && ((r.Up && belief == ceil) || (!r.Up && belief == floor))) {
			if r.Up {
				belief = update(belief, a, eps)
			} else {
				belief = update(belief, notA, notEps)
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

// update is the detector's Bayesian step, before the caps: belief b after
// an observation that a block up makes with probability pUp and a block
// down with probability pDown. ObserveAll and the trace certificate's
// bound walk both take it, so the formula and its rounding exist once.
func update(b, pUp, pDown float64) float64 {
	num := pUp * b
	den := num + pDown*(1-b)
	if den > 0 {
		return num / den
	}
	return b
}
