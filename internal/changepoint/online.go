package changepoint

// Online CUSUM for the streaming daemon. The batch Detect sees a complete
// series and runs forward and time-reversed passes; a daemon ingesting
// samples as they settle cannot reverse time, so Online replicates exactly
// the forward recursion of detectOnePass plus the on-the-fly equivalent of
// mergeContiguous, one sample at a time. Its state is a small plain struct
// (OnlineState) so a crash-safe caller can persist it and restore the
// detector to the precise sample where it left off; feeding the same
// samples in any chunking — including a restart mid-stream — yields the
// same changes as one uninterrupted pass.

import "fmt"

// OnlineState is the complete persistent state of an Online detector: a
// value type with no references, safe to copy, compare, and serialize.
// Restoring it (plus the changes emitted so far) resumes detection
// bit-identically.
type OnlineState struct {
	// GP and GN are the positive and negative cumulative sums.
	GP, GN float64
	// Tap and Tan are the indices where each sum last touched zero — the
	// estimated onset of a change in progress.
	Tap, Tan int
	// Next is the index the next sample will occupy.
	Next int
	// Prev is the last sample value (meaningful once Started).
	Prev float64
	// Started records whether any sample has been seen; the recursion
	// works on first differences, so the first sample only primes Prev.
	Started bool
}

// Online is an incremental two-sided CUSUM detector. Feed samples with
// Update; Changes returns everything detected so far, merged exactly as
// the batch forward pass merges contiguous alarms. Not safe for
// concurrent use.
type Online struct {
	opts    Opts
	s       OnlineState
	changes []Change
}

// NewOnline returns an empty online detector. It rejects the same option
// values Detect rejects.
func NewOnline(opts Opts) (*Online, error) {
	if opts.Threshold <= 0 {
		return nil, fmt.Errorf("changepoint: threshold %v must be positive", opts.Threshold)
	}
	if opts.Drift < 0 {
		return nil, fmt.Errorf("changepoint: negative drift %v", opts.Drift)
	}
	return &Online{opts: opts}, nil
}

// RestoreOnline reconstructs a detector from a persisted state snapshot
// and the changes emitted before the snapshot. changes is copied.
func RestoreOnline(opts Opts, st OnlineState, changes []Change) (*Online, error) {
	o, err := NewOnline(opts)
	if err != nil {
		return nil, err
	}
	o.s = st
	o.changes = append(o.changes, changes...)
	return o, nil
}

// Update feeds one sample and reports whether it tripped an alarm (either
// a new change or the extension of a contiguous one).
func (o *Online) Update(v float64) bool {
	s := &o.s
	if !s.Started {
		s.Prev, s.Started, s.Next = v, true, 1
		return false
	}
	i := s.Next
	s.Next = i + 1
	d := v - s.Prev
	s.Prev = v
	s.GP += d - o.opts.Drift
	s.GN += -d - o.opts.Drift
	if s.GP < 0 {
		s.GP = 0
		s.Tap = i
	}
	if s.GN < 0 {
		s.GN = 0
		s.Tan = i
	}
	// Positive alarm condition mirroring the batch detector's
	// (gp > T || gn > T). The inverted form (GP <= T && GN <= T → no
	// alarm) is not equivalent under NaN: every NaN comparison is false,
	// so a NaN sample fell through here and emitted a bogus Down change
	// per sample. NaN input must detect nothing, exactly as in batch.
	if !(s.GP > o.opts.Threshold || s.GN > o.opts.Threshold) {
		return false
	}
	c := Change{Alarm: i, End: i}
	if s.GP > o.opts.Threshold {
		c.Dir = Up
		c.Start = s.Tap
	} else {
		c.Dir = Down
		c.Start = s.Tan
	}
	s.GP, s.GN = 0, 0
	s.Tap, s.Tan = i, i
	// mergeContiguous, one change at a time: a slow transition trips the
	// threshold repeatedly, and those alarms describe one underlying change.
	if n := len(o.changes); n > 0 {
		last := &o.changes[n-1]
		if c.Dir == last.Dir && c.Start <= last.End {
			last.End = c.End
			return true
		}
	}
	o.changes = append(o.changes, c)
	return true
}

// Changes returns the changes detected so far, in time order, identical to
// mergeContiguous(detectOnePass(x, opts, nil)) over every sample fed. The
// last change may still extend if future samples continue the transition;
// Amplitude is not filled (the onset value is not retained). The returned
// slice is the detector's own; callers must not mutate it.
func (o *Online) Changes() []Change { return o.changes }

// State snapshots the recursion state. Persist it together with Changes
// to resume via RestoreOnline.
func (o *Online) State() OnlineState { return o.s }
