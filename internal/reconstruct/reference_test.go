package reconstruct

import (
	"fmt"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// The bodies below are the parent commit's Repair1Loss, MergeInto,
// appendRunDedup and Reconstruct, verbatim apart from their names: the
// oracles the cursor- and accumulator-driven versions are held to, bit for
// bit, in walk_test.go.

func referenceRepair1Loss(records []probe.Record) {
	// prev2/prev1 hold indices of the last two observations per address,
	// -1 when unseen.
	var prev1, prev2 [256]int
	for i := range prev1 {
		prev1[i] = -1
		prev2[i] = -1
	}
	for i, r := range records {
		a := int(r.Addr)
		if p2, p1 := prev2[a], prev1[a]; p2 >= 0 && p1 >= 0 {
			if records[p2].Up && !records[p1].Up && r.Up {
				records[p1].Up = true
			}
		}
		prev2[a] = prev1[a]
		prev1[a] = i
	}
}

func referenceMergeInto(dst []probe.Record, perObserver [][]probe.Record) []probe.Record {
	total := 0
	for _, s := range perObserver {
		total += len(s)
	}
	out := dst[:0]
	if cap(out) < total {
		// A reused buffer that has to grow will be asked to grow again:
		// the daemon merges a stream one round longer every refresh, and
		// an exact fit would reallocate (and zero) the buffer each time.
		// A first use gets the exact size.
		grown := total
		if cap(out) > 0 {
			grown += total / 4
		}
		out = make([]probe.Record, 0, grown)
	}
	k := len(perObserver)
	var headsArr [8]int
	var heads []int
	if k <= len(headsArr) {
		heads = headsArr[:k]
		for i := range heads {
			heads[i] = 0
		}
	} else {
		heads = make([]int, k)
	}
	for {
		best := -1
		var bestT int64
		for i := 0; i < k; i++ {
			s := perObserver[i]
			if heads[i] >= len(s) {
				continue
			}
			if t := s[heads[i]].T; best == -1 || t < bestT {
				best, bestT = i, t
			}
		}
		if best == -1 {
			return out
		}
		// Emit the winning stream's whole run of equal timestamps at once.
		// A probing round leaves one record per probed address with the same
		// T, so runs are long; under the (T, stream index) order the entire
		// run precedes every other stream's records — lower-index streams
		// hold only later timestamps (they lost the scan), and equal-T
		// records in higher-index streams sort after by the tie-break.
		s := perObserver[best]
		h := heads[best]
		j := h + 1
		for j < len(s) && s[j].T == bestT {
			j++
		}
		out = referenceAppendRunDedup(out, s[h:j])
		heads[best] = j
	}
}

func referenceAppendRunDedup(out, run []probe.Record) []probe.Record {
	// Adaptive probing keeps runs short (a round stops at its first
	// positive), so a quadratic duplicate scan with an early exit beats
	// clearing a [256]bool per run; the array path below runs only on
	// streams already known corrupt.
	dup := false
scan:
	for i := 1; i < len(run); i++ {
		for k := 0; k < i; k++ {
			if run[k].Addr == run[i].Addr {
				dup = true
				break scan
			}
		}
	}
	if !dup {
		return append(out, run...)
	}
	var seen [256]bool
	for _, r := range run {
		if seen[r.Addr] {
			continue
		}
		seen[r.Addr] = true
		out = append(out, r)
	}
	return out
}

func referenceReconstruct(merged []probe.Record, eb []int) (*Series, error) {
	if len(eb) == 0 {
		return nil, fmt.Errorf("reconstruct: empty target list")
	}
	// The target list is a membership test on the record hot loop: an
	// array beats a map by an order of magnitude there. Addresses outside
	// 0..255 can never match a record (Addr is uint8) but still count as
	// distinct targets, keeping completion semantics unchanged.
	var inEB [256]bool
	nEB := 0
	var extra map[int]bool
	for _, a := range eb {
		if a >= 0 && a < 256 {
			if !inEB[a] {
				inEB[a] = true
				nEB++
			}
		} else {
			if extra == nil {
				extra = make(map[int]bool)
			}
			if !extra[a] {
				extra[a] = true
				nEB++
			}
		}
	}
	// Pre-size the output: one point per distinct timestamp is an upper
	// bound, counted in one compare-only pass so the build loop below
	// never reallocates mid-build.
	points := 0
	{
		var prevT int64
		havePrev := false
		for i := range merged {
			if t := merged[i].T; !havePrev || t != prevT {
				points++
				prevT, havePrev = t, true
			}
		}
	}
	var state [256]int8 // -1 unknown, 0 down, 1 up
	for i := range state {
		state[i] = -1
	}
	seen, up := 0, 0
	s := &Series{Times: make([]int64, 0, points), Counts: make([]float64, 0, points)}
	times, counts := s.Times, s.Counts
	var curT int64
	started := false
	for i := range merged {
		r := &merged[i]
		a := int(r.Addr)
		if !inEB[a] {
			continue
		}
		if started && r.T != curT {
			if seen == nEB {
				times = append(times, curT)
				counts = append(counts, float64(up))
			}
		}
		curT = r.T
		started = true
		old := state[a]
		if old == -1 {
			seen++
		}
		if old == 1 {
			up--
		}
		if r.Up {
			state[a] = 1
			up++
		} else {
			state[a] = 0
		}
	}
	if started && seen == nEB {
		times = append(times, curT)
		counts = append(counts, float64(up))
	}
	s.Times, s.Counts = times, counts
	return s, nil
}
