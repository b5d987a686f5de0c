package stl

// Settle tracking for the streaming daemon. STL is a whole-series
// smoother: appending samples perturbs the trend near the new edge, so a
// daemon re-decomposing a growing series cannot treat the latest trend as
// final everywhere. The daemon decomposes inside the shared analysis
// kernel and shows each refresh's trend to a Window, which tracks the
// *settled prefix* — the leading samples whose trend value stopped moving
// between consecutive refreshes — which is what an online change detector
// may safely consume early. Settling is a heuristic (a sample quiet between
// two refreshes can still move later, which is why the tolerance is
// paired with a lag guard); authoritative verdicts always come from the
// final full-window decomposition.

import "fmt"

// DefaultSettleLag is the guard distance held back from the settled
// frontier: roughly the trend smoother's half-width for the pipeline's
// weekly period, past which edge effects from appended data no longer
// reach in practice.
const DefaultSettleLag = 96

// Window observes the trends of successive decompositions of a growing
// series and tracks the prefix that has stopped moving. It runs no
// decomposition itself. Not safe for concurrent use.
type Window struct {
	// Eps is the per-sample absolute trend tolerance: a sample is quiet
	// when its trend moved less than Eps since the previous refresh.
	// Zero means exact equality.
	Eps float64
	// Lag holds the settled frontier this many samples behind the last
	// quiet sample (negative: no guard; zero: DefaultSettleLag).
	Lag int

	prev    []float64
	settled int
}

// Observe updates the settled prefix from the trend of the latest
// decomposition and returns it. The trend is copied.
func (w *Window) Observe(trend []float64) int {
	quiet := 0
	limit := len(trend)
	if len(w.prev) < limit {
		limit = len(w.prev)
	}
	for quiet < limit {
		d := trend[quiet] - w.prev[quiet]
		if d < 0 {
			d = -d
		}
		if d > w.Eps {
			break
		}
		quiet++
	}
	lag := w.Lag
	if lag == 0 {
		lag = DefaultSettleLag
	} else if lag < 0 {
		lag = 0
	}
	if s := quiet - lag; s > w.settled {
		w.settled = s
	}
	w.prev = append(w.prev[:0], trend...)
	return w.settled
}

// String summarizes the window state for diagnostics.
func (w *Window) String() string {
	return fmt.Sprintf("stl.Window{settled=%d, seen=%d}", w.settled, len(w.prev))
}
