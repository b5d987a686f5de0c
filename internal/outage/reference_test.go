package outage

import "github.com/diurnalnet/diurnal/internal/probe"

// observeAllReference is the parent commit's observeAll, verbatim apart
// from its name and receiver: the oracle ObserveAll is held to in
// run_test.go.
func observeAllReference(d *Detector, records []probe.Record) {
	a := d.availability
	eps := d.params.LieProbability
	floor, ceil := d.params.BeliefFloor, d.params.BeliefCeiling
	upTh, downTh := d.params.UpThreshold, d.params.DownThreshold
	canSkip := a >= eps
	belief, state, outages := d.belief, d.state, d.outages
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
				outages[len(outages)-1].End = r.T
			}
			state = Up
		case belief <= downTh:
			if state != Down {
				outages = append(outages, Interval{Start: r.T})
			}
			state = Down
		}
	}
	d.belief, d.state, d.outages = belief, state, outages
}
