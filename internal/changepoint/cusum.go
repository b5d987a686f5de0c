// Package changepoint implements the CUSUM change-point detector the paper
// applies to the normalized STL trend of active-address counts (§2.6),
// following the classical formulation (Gustafsson 2000) as implemented by
// the detecta module the paper cites: cumulative sums of positive and
// negative first differences with a drift term, alarming when either sum
// crosses a threshold. The §2.6 outage filter that discards closely
// paired down/up changes lives with the kernel that runs it (core).
package changepoint

import (
	"fmt"

	"github.com/diurnalnet/diurnal/internal/stats"
)

// Direction is the sign of a detected change.
type Direction int

const (
	// Up marks an increase in the underlying level.
	Up Direction = 1
	// Down marks a decrease in the underlying level. Downward changes in
	// the address trend are the paper's human-activity signal.
	Down Direction = -1
)

// String returns "up" or "down".
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Change describes one detected change point.
type Change struct {
	// Start is the sample index where the cumulative sum last left zero
	// before the alarm — the estimated onset of the change.
	Start int
	// Alarm is the index where the cumulative sum crossed the threshold.
	Alarm int
	// End is the estimated index where the change completed (from a
	// time-reversed detection pass); equals Alarm when the reverse pass
	// cannot be paired.
	End int
	// Dir is the change direction.
	Dir Direction
	// Amplitude is x[End] - x[Start], in the units of the input series.
	Amplitude float64
}

// Opts configures detection. The paper's defaults for z-score-normalized
// trends are Threshold 1 and Drift 0.001.
type Opts struct {
	Threshold float64
	Drift     float64
}

// DefaultOpts returns the paper's CUSUM parameters (threshold 1,
// drift 0.001), intended for series normalized with Normalize.
func DefaultOpts() Opts {
	return Opts{Threshold: 1, Drift: 0.001}
}

// Normalize returns the z-score of x, the normalization the paper applies
// to the STL trend "so we can use the same CUSUM parameters for every
// block".
func Normalize(x []float64) []float64 { return stats.ZScore(x) }

// Sums holds the cumulative sums of positive and negative changes over
// time, as plotted in the lower panel of the paper's Figure 1c.
type Sums struct {
	Pos []float64
	Neg []float64
}

// Detect runs two-sided CUSUM change detection on x and returns the
// changes in time order. It returns an error for a non-positive threshold.
func Detect(x []float64, opts Opts) ([]Change, error) {
	changes, _, err := DetectWithSums(x, opts)
	return changes, err
}

// DetectWithSums is Detect but also returns the cumulative-sum traces for
// inspection or plotting.
func DetectWithSums(x []float64, opts Opts) ([]Change, *Sums, error) {
	if opts.Threshold <= 0 {
		return nil, nil, fmt.Errorf("changepoint: threshold %v must be positive", opts.Threshold)
	}
	if opts.Drift < 0 {
		return nil, nil, fmt.Errorf("changepoint: negative drift %v", opts.Drift)
	}
	n := len(x)
	sums := &Sums{Pos: make([]float64, n), Neg: make([]float64, n)}
	if n < 2 {
		return nil, sums, nil
	}
	forward := mergeContiguous(detectOnePass(x, opts, sums))

	// Time-reversed pass to estimate where each change ends: a change's
	// end in forward time is its start in reversed time.
	rev := make([]float64, n)
	for i := range x {
		rev[i] = x[n-1-i]
	}
	backward := mergeContiguous(detectOnePass(rev, opts, nil))

	if len(backward) == len(forward) {
		for i := range forward {
			b := backward[len(backward)-1-i]
			end := n - 1 - b.Start
			if end >= forward[i].Alarm {
				forward[i].End = end
			}
		}
	}
	for i := range forward {
		forward[i].Amplitude = x[forward[i].End] - x[forward[i].Start]
	}
	return forward, sums, nil
}

// detectOnePass runs the forward CUSUM recursion, filling sums when
// non-nil. End fields are initialized to the alarm index.
func detectOnePass(x []float64, opts Opts, sums *Sums) []Change {
	var changes []Change
	gp, gn := 0.0, 0.0
	tap, tan := 0, 0
	for i := 1; i < len(x); i++ {
		s := x[i] - x[i-1]
		gp += s - opts.Drift
		gn += -s - opts.Drift
		if gp < 0 {
			gp = 0
			tap = i
		}
		if gn < 0 {
			gn = 0
			tan = i
		}
		if sums != nil {
			sums.Pos[i] = gp
			sums.Neg[i] = gn
		}
		if gp > opts.Threshold || gn > opts.Threshold {
			c := Change{Alarm: i, End: i}
			if gp > opts.Threshold {
				c.Dir = Up
				c.Start = tap
			} else {
				c.Dir = Down
				c.Start = tan
			}
			changes = append(changes, c)
			gp, gn = 0, 0
			tap, tan = i, i
		}
	}
	return changes
}

// mergeContiguous coalesces runs of same-direction changes where each
// change starts at (or before) the previous change's alarm: a single slow
// transition larger than the threshold trips CUSUM repeatedly, and those
// repeated alarms describe one underlying change. The merged change keeps
// the first start and alarm and extends End to the last alarm.
func mergeContiguous(changes []Change) []Change {
	if len(changes) < 2 {
		return changes
	}
	out := changes[:1]
	for _, c := range changes[1:] {
		last := &out[len(out)-1]
		if c.Dir == last.Dir && c.Start <= last.End {
			last.End = c.End
			continue
		}
		out = append(out, c)
	}
	return out
}
