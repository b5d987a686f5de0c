package core

import (
	"math"
	"sort"

	"github.com/diurnalnet/diurnal/internal/outage"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
)

// FrontState is one block's front half kept between refreshes, for a
// caller that receives a block's streams a piece at a time (the streaming
// daemon): Advance takes only the records appended since the last call,
// and Analyze returns what AnalyzeCollectedScratch returns over the whole
// history so far — bit for bit, Series, outages and SanitizeReport
// included. frontHalf stays the batch path and this type's oracle; both
// run the same stages (Sanitizer.Append, Repairer.Tally, Cursor,
// Accumulator, Detector.ObserveAll), this one over their state carried
// from call to call.
//
// The commit rule. Each stream's records pass sanitization and repair as
// they arrive, but the merged-order walk takes a record for good only when
// nothing later can change it or reorder it. A later record can repair a
// 0 that follows a 1 as its address's last observation (a 1→0 tail), and
// with sanitizing off a stream may be out of order. So each Advance
// commits, across all streams, the records timestamped before the earliest
// record that is such a tail or follows a stream's first step back in
// time; the rest stays held, already repaired. Once a stream has delivered
// a record behind its newest one, the commit also stays that far behind
// every stream's newest record, so that records as late as that are held
// ones when they come, not refused ones. Analyze walks the held
// records onto a fork of the committed accumulator, and re-runs the outage
// belief over a compact trace of the committed merged stream plus the held
// one: the belief's availability is the whole stream's reply rate, so it
// cannot be committed. The trace's certificate (outage.Trace) lets the
// re-run skip the committed stretches where no availability near the one
// it was certified at changes the outcome; Reset drops it, and the next
// Analyze certifies afresh.
//
// Advance refuses a record timestamped at or before the last committed run
// (with sanitizing on, an out-of-window record is dropped, not refused):
// the committed walk would have had to take it. With sanitizing and repair
// on it also refuses a record that re-sorting would place before the held
// record that decided the repair of its address's last committed one. The
// caller then Resets the state and advances it over the whole history in
// one call, which is the same code with nothing committed yet. A
// FrontState is not safe for concurrent use.
type FrontState struct {
	cfg     Resolved
	eb      []int
	streams []frontStream
	san     reconstruct.SanitizeReport
	// last is the timestamp of the last committed run, once committed is
	// set: every held record, and every record a later Advance takes, is
	// after it.
	last      int64
	committed bool
	// late is the furthest any stream has delivered a record behind its
	// newest one.
	late  int64
	acc   reconstruct.Accumulator
	trace outage.Trace
	cur   reconstruct.Cursor
	views [][]probe.Record  // the cursor's input, one subslice per stream
	flips reconstruct.Flips // one stream's repairs, written into its held records
}

// frontStream is one observer stream's part of a FrontState.
type frontStream struct {
	san reconstruct.Sanitizer
	// rep is the repair state after the stream's committed records.
	rep reconstruct.Repairer
	// pend holds the stream's uncommitted records as sanitized, before
	// repair (sanitizing compares a new record against the first
	// observation as it arrived); held is pend repaired.
	pend, held []probe.Record
	// top is the newest timestamp the stream has delivered, once topped.
	top    int64
	topped bool
}

// redecides reports whether sanitizing would sort a record of next in
// between an address's last committed record and the held record that
// decided its repair: a committed 0 after a 1 was repaired, or not, by the
// address's next observation, and next would replace that observation.
func (st *frontStream) redecides(next []probe.Record, lo, hi int64) bool {
	risky := false
	for _, r := range next {
		if r.T >= lo && r.T < hi && st.rep.Open(r.Addr) {
			risky = true
			break
		}
	}
	if !risky {
		return false
	}
	var first [256]int64
	var held [256]bool
	for _, r := range st.pend {
		if !held[r.Addr] {
			first[r.Addr], held[r.Addr] = r.T, true
		}
	}
	for _, r := range next {
		if r.T >= lo && r.T < hi && st.rep.Open(r.Addr) && (!held[r.Addr] || r.T < first[r.Addr]) {
			return true
		}
	}
	return false
}

// NewFrontState returns an empty front half for a block with target list
// eb under r.
func (r Resolved) NewFrontState(eb []int) *FrontState {
	f := &FrontState{cfg: r, eb: eb}
	f.Reset()
	return f
}

// Reset empties the state, keeping its storage.
func (f *FrontState) Reset() {
	lo, hi := f.cfg.sanitizeWindow()
	for i := range f.streams {
		st := &f.streams[i]
		*st = frontStream{san: reconstruct.Sanitizer{Start: lo, End: hi}, pend: st.pend[:0], held: st.held[:0]}
	}
	f.san = reconstruct.SanitizeReport{}
	f.last, f.committed, f.late = 0, false, 0
	f.trace.Reset()
	if len(f.eb) > 0 {
		// Reset fails only on an empty target list.
		_ = f.acc.Reset(f.eb, 0)
	}
}

// Advance takes the next records of each observer stream, perObs[o]
// following everything stream o has had so far; perObs is not modified. It
// returns false, with the state untouched, when it refuses the records (see
// FrontState).
func (f *FrontState) Advance(perObs [][]probe.Record) bool {
	if len(f.eb) == 0 {
		return true
	}
	c := &f.cfg.c
	lo, hi := f.cfg.sanitizeWindow()
	if f.committed {
		for o, recs := range perObs {
			for _, r := range recs {
				if r.T <= f.last && !(c.SanitizeRecords && (r.T < lo || r.T >= hi)) {
					return false
				}
			}
			if c.SanitizeRecords && c.Repair && o < len(f.streams) && f.streams[o].redecides(recs, lo, hi) {
				return false
			}
		}
	}
	for len(f.streams) < len(perObs) {
		f.streams = append(f.streams, frontStream{san: reconstruct.Sanitizer{Start: lo, End: hi}})
		f.views = append(f.views, nil)
	}
	// Sanitize the new records onto the held ones, and learn how late the
	// streams deliver.
	for o := range f.streams {
		st := &f.streams[o]
		var next []probe.Record
		if o < len(perObs) {
			next = perObs[o]
		}
		for _, r := range next {
			if c.SanitizeRecords && (r.T < lo || r.T >= hi) {
				continue
			}
			if st.topped && r.T < st.top {
				late := st.top - r.T
				if late < 0 { // overflowed
					late = math.MaxInt64
				}
				f.late = max(f.late, late)
			}
			if !st.topped || r.T > st.top {
				st.top, st.topped = r.T, true
			}
		}
		if c.SanitizeRecords {
			st.pend = st.san.Append(st.pend, next, &f.san)
		} else {
			st.pend = append(st.pend, next...)
		}
	}
	// A record as late as any so far would land after the cutoff.
	var cutoff int64
	cutting := false
	if f.late > 0 {
		for o := range f.streams {
			st := &f.streams[o]
			if !st.topped {
				continue
			}
			cut := st.top - f.late
			if cut > st.top { // overflowed
				cut = math.MinInt64
			}
			if !cutting || cut < cutoff {
				cutoff, cutting = cut, true
			}
		}
	}
	// Repair the held records, and find the commit bound: the earliest
	// record any stream must hold — a 1→0 tail before the cutoff, or what
	// follows a step back in time — and the cutoff itself.
	bound, bounded := cutoff, cutting
	for o := range f.streams {
		st := &f.streams[o]
		st.held = append(st.held[:0], st.pend...)
		cut := len(st.held)
		if cutting {
			for i, r := range st.held {
				if r.T >= cutoff {
					cut = i
					break
				}
			}
		}
		rep := st.rep
		_, _, hold := rep.Tally(st.held, c.Repair, cut, &f.flips)
		f.flips.Apply(st.held)
		for i := 1; i < hold; i++ {
			if st.held[i].T < st.held[i-1].T {
				hold = i
				break
			}
		}
		for _, r := range st.held[hold:] {
			if !bounded || r.T < bound {
				bound, bounded = r.T, true
			}
		}
	}
	// Commit every stream's records before the bound. They are a prefix of
	// each stream, in time order, and precede every record held or still to
	// come, so walking them now is walking the head of the whole stream.
	for o := range f.streams {
		held := f.streams[o].held
		k := len(held)
		if bounded {
			k = sort.Search(k, func(i int) bool { return held[i].T >= bound })
		}
		f.views[o] = held[:k]
	}
	masking := c.OutageMaskMinHours >= 0
	f.cur.Dedup, f.cur.Resolve = !c.SanitizeRecords, c.Integrity
	f.cur.Reset(f.views)
	for run := f.cur.Next(); run != nil; run = f.cur.Next() {
		f.acc.Add(run)
		if masking {
			f.trace.Append(run)
		}
		f.last, f.committed = run[0].T, true
	}
	for o := range f.streams {
		st := &f.streams[o]
		k := len(f.views[o])
		if c.Repair {
			st.rep.Tally(st.pend[:k], true, k, &f.flips)
		}
		st.pend = dropHead(st.pend, k)
		st.held = dropHead(st.held, k)
	}
	return true
}

// dropHead removes the first k records of s, moving the rest to the front.
// Storage far beyond what is left goes: the advance that rebuilds a state
// over a whole history must not leave the held records that much room for
// good.
func dropHead(s []probe.Record, k int) []probe.Record {
	rest := s[k:]
	if cap(s) > 4*len(rest)+1024 {
		return append(make([]probe.Record, 0, 2*len(rest)), rest...)
	}
	return append(s[:0], rest...)
}

// Certified returns how many times the outage belief's trace has been
// certified since the state was made, and how many committed records the
// belief has skipped under a certificate (see outage.Trace).
func (f *FrontState) Certified() (certifications, skipped int) { return f.trace.Certified() }

// Analyze runs the kernel's series-level half over the front half so far:
// what AnalyzeCollectedScratch returns over every record Advance has
// taken since the last Reset.
func (f *FrontState) Analyze(sc *Scratch) (*BlockAnalysis, error) {
	if len(f.eb) == 0 {
		return &BlockAnalysis{Series: &reconstruct.Series{}}, nil
	}
	series, outages, san := f.front(sc)
	return f.cfg.analyzeResolvedSeries(series, outages, san, sc)
}

// front finishes the record-level half provisionally: the held records
// walked onto a fork of the committed accumulator, and the belief over the
// committed trace and the held walk.
func (f *FrontState) front(sc *Scratch) (*reconstruct.Series, []outage.Interval, reconstruct.SanitizeReport) {
	c := &f.cfg.c
	for o := range f.streams {
		f.views[o] = f.streams[o].held
	}
	masking := c.OutageMaskMinHours >= 0
	acc := f.acc.Fork()
	walked := sc.walked[:0]
	f.cur.Dedup, f.cur.Resolve = !c.SanitizeRecords, c.Integrity
	f.cur.Reset(f.views)
	for run := f.cur.Next(); run != nil; run = f.cur.Next() {
		acc.Add(run)
		if masking {
			walked = append(walked, run...)
		}
	}
	series := acc.Finish()
	// As in frontHalf: the availability is the merged stream's reply rate,
	// and there is no belief when masking is off or nothing answered.
	var det *outage.Detector
	if masking {
		records, responsive := f.trace.Len()
		records += len(walked)
		for _, r := range walked {
			if r.Up {
				responsive++
			}
		}
		if responsive > 0 {
			det, _ = outage.NewDetector(float64(responsive)/float64(records), outage.Params{})
			sc.replay = f.trace.Replay(det, sc.replay)
			det.ObserveAll(walked)
		}
	}
	sc.walked = walked[:0]
	return series, f.cfg.maskingOutages(det), f.san
}
