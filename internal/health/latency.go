package health

import (
	"sort"
	"sync"
	"time"
)

// HedgeConfig tunes straggler detection and hedged re-dispatch. The zero
// value takes every default; see DefaultHedge.
type HedgeConfig struct {
	// Multiplier scales the observed latency quantile into the hedge
	// deadline (default 3): a block is a straggler once it has run
	// Multiplier times longer than the Quantile of completed blocks.
	Multiplier float64
	// Quantile is the completed-block latency quantile the deadline is
	// anchored to (default 0.95).
	Quantile float64
	// MinSamples is how many completed blocks must be measured before
	// hedging arms (default 4); until then no block is re-dispatched.
	MinSamples int
	// MinDeadline floors the adaptive deadline (default 25ms) so tiny
	// fast worlds do not hedge on scheduler jitter.
	MinDeadline time.Duration
	// MaxConcurrent bounds in-flight hedge attempts (default 2); hedges
	// run on their own budget so stalled primaries cannot starve them.
	MaxConcurrent int
	// Poll is the watchdog's scan interval (default 5ms).
	Poll time.Duration
}

// DefaultHedge returns the default hedging tuning.
func DefaultHedge() HedgeConfig { return HedgeConfig{}.withDefaults() }

// WithDefaults fills zero fields with the package defaults.
func (c HedgeConfig) WithDefaults() HedgeConfig { return c.withDefaults() }

func (c HedgeConfig) withDefaults() HedgeConfig {
	if c.Multiplier <= 0 {
		c.Multiplier = 3
	}
	if c.Quantile <= 0 || c.Quantile > 1 {
		c.Quantile = 0.95
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 4
	}
	if c.MinDeadline <= 0 {
		c.MinDeadline = 25 * time.Millisecond
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.Poll <= 0 {
		c.Poll = 5 * time.Millisecond
	}
	return c
}

// latencyWindow bounds how many completed-block durations the tracker
// remembers; old samples age out so the deadline follows drift.
const latencyWindow = 256

// Latency tracks completed-block durations in a bounded ring and derives
// the adaptive hedge deadline from a configured quantile. Safe for
// concurrent use.
type Latency struct {
	mu      sync.Mutex
	cfg     HedgeConfig
	ring    [latencyWindow]time.Duration
	n       int // total samples ever observed
	scratch []time.Duration
}

// NewLatency builds a tracker with cfg (zero fields take defaults).
func NewLatency(cfg HedgeConfig) *Latency {
	return &Latency{cfg: cfg.withDefaults()}
}

// Observe records one completed block's duration.
func (l *Latency) Observe(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring[l.n%latencyWindow] = d
	l.n++
}

func (l *Latency) quantileLocked(q float64) (time.Duration, bool) {
	n := l.n
	if n == 0 {
		return 0, false
	}
	if n > latencyWindow {
		n = latencyWindow
	}
	l.scratch = append(l.scratch[:0], l.ring[:n]...)
	sort.Slice(l.scratch, func(i, j int) bool { return l.scratch[i] < l.scratch[j] })
	idx := int(q * float64(n-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return l.scratch[idx], true
}

// Deadline returns the current adaptive hedge deadline: Multiplier times
// the configured latency quantile, floored at MinDeadline. It returns
// false until MinSamples blocks have completed — hedging stays disarmed
// while there is nothing trustworthy to compare a straggler against.
func (l *Latency) Deadline() (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n < l.cfg.MinSamples {
		return 0, false
	}
	q, ok := l.quantileLocked(l.cfg.Quantile)
	if !ok {
		return 0, false
	}
	d := time.Duration(l.cfg.Multiplier * float64(q))
	if d < l.cfg.MinDeadline {
		d = l.cfg.MinDeadline
	}
	return d, true
}
