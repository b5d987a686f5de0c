package health

import (
	"fmt"
	"sync"
)

// State is a circuit breaker position.
type State uint8

const (
	// Closed means the observer is trusted and its records are used.
	Closed State = iota
	// Open means the observer tripped its breaker: its record streams are
	// discarded until a cooldown elapses.
	Open
	// HalfOpen means the observer is on probation: it is included again,
	// and the next few blocks decide whether it closes or re-opens.
	HalfOpen
)

// String renders the state for reports.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Sample is one block's outcome for one observer: how many of its probe
// records were positive, out of how many total. A Total of zero means the
// observer produced no records at all for the block — the strongest
// possible sign of a dead site, scored as a reply rate of zero.
type Sample struct {
	Up, Total int
}

// BreakerConfig tunes the per-observer circuit breakers. The zero value
// takes every default; see DefaultBreaker.
type BreakerConfig struct {
	// Alpha is the EWMA smoothing factor for per-block reply rates
	// (default 0.2): the score remembers roughly the last 1/Alpha blocks.
	Alpha float64
	// Tol is the trip margin: a closed observer whose score falls more
	// than Tol below the median closed-observer score opens (default
	// 0.25). It is deliberately wider than the pre-scan's 0.1 — tripping
	// mid-run costs coverage, so the runtime breaker demands a clearer
	// signal than the one-shot health check.
	Tol float64
	// MinSamples is how many blocks an observer must have contributed to
	// before it may trip (default 8); pre-scan seeding satisfies it
	// immediately, keeping the pre-scan and runtime decisions consistent.
	MinSamples int
	// Cooldown is how many completed blocks an open breaker waits before
	// moving to half-open probation (default 32).
	Cooldown int
	// Probation is how many blocks a half-open observer is included for
	// before the breaker decides to close or re-open (default 8).
	Probation int
	// minHealthy is the number of closed observers that must always
	// remain: a trip that would leave fewer is suppressed, mirroring the
	// pre-scan rule that the check never discards every observer
	// (default 1; in-package tests raise it).
	minHealthy int
}

// DefaultBreaker returns the default breaker tuning.
func DefaultBreaker() BreakerConfig { return BreakerConfig{}.withDefaults() }

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Alpha <= 0 {
		c.Alpha = 0.2
	}
	if c.Tol <= 0 {
		c.Tol = 0.25
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 32
	}
	if c.Probation <= 0 {
		c.Probation = 8
	}
	if c.minHealthy <= 0 {
		c.minHealthy = 1
	}
	return c
}

// Transition is one recorded breaker state change; the pipeline surfaces
// the full sequence in its RunReport.
type Transition struct {
	// Observer is the engine observer index.
	Observer int
	// From and To are the breaker states around the change.
	From, To State
	// Seq is the tracker's completed-block sequence number at the change
	// (0 for pre-scan seeding, before any block completed).
	Seq int
	// Score is the observer's EWMA health score at the change.
	Score float64
	// Reason says what drove the change.
	Reason string
}

// String renders the transition for reports.
func (t Transition) String() string {
	return fmt.Sprintf("observer %d %s->%s at block %d (score %.2f: %s)",
		t.Observer, t.From, t.To, t.Seq, t.Score, t.Reason)
}

// Tracker maintains per-observer EWMA health scores and circuit breakers,
// fed by per-block collection outcomes. It is safe for concurrent use by
// pipeline workers; decisions are made under one lock so the transition
// log is a consistent serialization.
type Tracker struct {
	mu          sync.Mutex
	cfg         BreakerConfig
	obs         []obsState
	seq         int
	transitions []Transition
}

type obsState struct {
	state     State
	score     float64
	seeded    bool
	samples   int
	openedAt  int
	probation int
}

// NewTracker builds a tracker with cfg (zero fields take defaults). The
// observer count is learned lazily from the first Seed or ObserveBlock
// call, so callers need not know the engine's shape up front.
func NewTracker(cfg BreakerConfig) *Tracker {
	return &Tracker{cfg: cfg.withDefaults()}
}

// grow extends the tracked observer set; callers hold t.mu.
func (t *Tracker) grow(n int) {
	for len(t.obs) < n {
		t.obs = append(t.obs, obsState{})
	}
}

// shift moves observer i to state to, recording the transition; callers
// hold t.mu.
func (t *Tracker) shift(i int, to State, reason string) {
	st := &t.obs[i]
	if st.state == to {
		return
	}
	t.transitions = append(t.transitions, Transition{
		Observer: i, From: st.state, To: to, Seq: t.seq, Score: st.score, Reason: reason,
	})
	st.state = to
}

// Seed installs the static pre-scan's per-observer reply rates as the
// initial health scores and opens the breakers of observers the pre-scan
// already excluded. Seeded observers count as fully sampled, so the
// runtime breaker may act immediately instead of re-learning what the
// pre-scan measured — the pre-scan and the breaker agree on exclusion
// from the first block. Pre-scan-excluded observers are eligible for
// half-open probation after the normal cooldown, so a site that recovers
// mid-run can be readmitted.
func (t *Tracker) Seed(rates []float64, excluded []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.grow(len(rates))
	for i, r := range rates {
		st := &t.obs[i]
		st.score = r
		st.seeded = true
		st.samples = t.cfg.MinSamples
	}
	for _, i := range excluded {
		if i >= 0 && i < len(t.obs) {
			t.shift(i, Open, "pre-scan exclusion")
			t.obs[i].openedAt = t.seq
		}
	}
}

// ObserveBlock folds one completed block collection into the tracker:
// samples[i] is observer i's outcome (ignored for observers whose breaker
// is open — their records were discarded, so there is nothing to score).
// It then re-evaluates every breaker: closed observers whose score fell
// more than Tol below the closed median trip open, open breakers past
// their cooldown move to half-open, and half-open observers finishing
// probation close (readmitted) or re-open.
func (t *Tracker) ObserveBlock(samples []Sample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.grow(len(samples))
	t.seq++
	for i := range t.obs {
		st := &t.obs[i]
		if st.state == Open {
			if t.seq-st.openedAt >= t.cfg.Cooldown {
				t.shift(i, HalfOpen, "cooldown elapsed; probation begins")
				st.probation = 0
			}
			continue
		}
		if i >= len(samples) {
			continue
		}
		rate := 0.0
		if samples[i].Total > 0 {
			rate = float64(samples[i].Up) / float64(samples[i].Total)
		}
		if !st.seeded {
			st.score, st.seeded = rate, true
		} else {
			st.score = t.cfg.Alpha*rate + (1-t.cfg.Alpha)*st.score
		}
		st.samples++
		if st.state == HalfOpen {
			st.probation++
		}
	}
	med, ok := t.closedMedian()
	if !ok {
		return
	}
	healthy := 0
	for i := range t.obs {
		if t.obs[i].state == Closed {
			healthy++
		}
	}
	for i := range t.obs {
		st := &t.obs[i]
		switch st.state {
		case Closed:
			if st.samples >= t.cfg.MinSamples && st.score < med-t.cfg.Tol && healthy > t.cfg.minHealthy {
				t.shift(i, Open, fmt.Sprintf("score %.2f fell below median %.2f - %.2f", st.score, med, t.cfg.Tol))
				st.openedAt = t.seq
				healthy--
			}
		case HalfOpen:
			if st.probation < t.cfg.Probation {
				continue
			}
			if st.score >= med-t.cfg.Tol {
				t.shift(i, Closed, "probation passed; observer readmitted")
			} else {
				t.shift(i, Open, fmt.Sprintf("probation failed at score %.2f", st.score))
				st.openedAt = t.seq
			}
		}
	}
}

// closedMedian returns the median score over closed, sampled observers;
// ok is false when no closed observer has been sampled yet (nothing to
// compare against, so no breaker may act). Callers hold t.mu.
func (t *Tracker) closedMedian() (med float64, ok bool) {
	var scores []float64
	for i := range t.obs {
		if t.obs[i].state == Closed && t.obs[i].samples > 0 {
			scores = append(scores, t.obs[i].score)
		}
	}
	if len(scores) == 0 {
		return 0, false
	}
	// Insertion sort: at most six observers.
	for i := 1; i < len(scores); i++ {
		for j := i; j > 0 && scores[j] < scores[j-1]; j-- {
			scores[j], scores[j-1] = scores[j-1], scores[j]
		}
	}
	return scores[len(scores)/2], true
}

// ExcludedSet fills dst (grown as needed) with true at every observer
// index whose breaker is open — the per-collection drop mask.
func (t *Tracker) ExcludedSet(dst []bool) []bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cap(dst) < len(t.obs) {
		dst = make([]bool, len(t.obs))
	}
	dst = dst[:len(t.obs)]
	for i := range t.obs {
		dst[i] = t.obs[i].state == Open
	}
	return dst
}

// Excluded returns the observer indices whose breaker is open, ascending.
func (t *Tracker) Excluded() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for i := range t.obs {
		if t.obs[i].state == Open {
			out = append(out, i)
		}
	}
	return out
}

// Scores returns the current EWMA health scores by observer index.
func (t *Tracker) Scores() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(t.obs))
	for i := range t.obs {
		out[i] = t.obs[i].score
	}
	return out
}

// Transitions returns the recorded state changes in decision order.
func (t *Tracker) Transitions() []Transition {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Transition(nil), t.transitions...)
}
