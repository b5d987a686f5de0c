package core

import (
	"math"
	"sort"

	"github.com/diurnalnet/diurnal/internal/outage"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
)

// FrontState is the kernel's record-level half for one block: steps 1–3 of
// the paper's Table 1 (sanitize, combine the observers, reconstruct with
// 1-loss repair) plus the §2.6 outage cross-check, run by the stages
// Sanitizer.Append, Repairer.Tally, Cursor, Accumulator and
// Detector.ObserveAll with their state carried from call to call. Advance
// takes the next records of each observer stream, and Analyze returns what
// the staged composition Sanitize → Repair1Loss → MergeInto →
// ResolveContested → Reconstruct + outage.FromRecords gives over the whole
// history so far — bit for bit, Series, outages and SanitizeReport
// included. It reads its input and never writes it.
//
// It has two owners. The batch kernel (AnalyzeCollectedScratch,
// Config.Reconstruct) resets the state its worker's Scratch holds for each
// block and advances it once, over the whole history; the streaming daemon
// keeps one per block between refreshes and advances it by each refresh's
// new records.
//
// The commit rule. Each stream's records pass sanitization and repair as
// they arrive, but the merged-order walk takes a record for good only when
// nothing later can change it or reorder it. A later record can repair a
// 0 that follows a 1 as its address's last observation (a 1→0 tail), and
// with sanitizing off a stream may be out of order. So each Advance
// commits, across all streams, the records timestamped before the earliest
// record that is such a tail or follows a stream's first step back in
// time; the rest stays held. Once a stream has delivered a record behind
// its newest one, the commit also stays that far behind every stream's
// newest record, so that records as late as that are held ones when they
// come, not refused ones. Analyze walks the held records, repaired from
// the committed state, onto a fork of the committed accumulator, and
// re-runs the outage belief over a compact trace of the committed merged
// stream plus the held one: the belief's availability is the whole
// stream's reply rate, so it cannot be committed. The trace's certificate
// (outage.Trace) lets the re-run skip the committed stretches where no
// availability near the one it was certified at changes the outcome; Reset
// drops it, and the next Analyze certifies afresh. A Scratch's state sees
// no later record, so it commits every record and walks the belief
// directly, at the reply rate its one Advance tallies; it traces the
// merged stream only when the walk drops records and so departs from that
// rate.
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
	// once is set on the state a Scratch holds, which is advanced once per
	// Reset and keeps its storage from block to block (see advanceOnce).
	once bool
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
	// det is the belief a once state's Advance walked; nil when there is
	// none, or when its walk dropped records and traced the merged stream.
	det   *outage.Detector
	cur   reconstruct.Cursor
	views [][]probe.Record    // the cursor's input, one subslice per stream
	flips []reconstruct.Flips // the views' repairs, none with repair off
}

// frontStream is one observer stream's part of a FrontState.
type frontStream struct {
	san reconstruct.Sanitizer
	// rep is the repair state after the stream's committed records.
	rep reconstruct.Repairer
	// pend holds the stream's held records as sanitized, before repair
	// (sanitizing compares a new record against the first observation as it
	// arrived); flips are their repairs, once tallied.
	pend  []probe.Record
	flips reconstruct.Flips
	// in is what an Advance walks: pend with the new records added, or the
	// new records themselves, read in place, when nothing was held and they
	// need no sanitizing.
	in []probe.Record
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
		*st = frontStream{san: reconstruct.Sanitizer{Start: lo, End: hi}, pend: st.pend[:0], flips: st.flips[:0]}
	}
	f.san = reconstruct.SanitizeReport{}
	f.last, f.committed, f.late = 0, false, 0
	f.trace.Reset()
	f.det = nil
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
		f.flips = append(f.flips, nil)
	}
	// Sanitize the new records onto the held ones, and learn how late the
	// streams deliver; a once state holds nothing back for late records.
	for o := range f.streams {
		st := &f.streams[o]
		var next []probe.Record
		if o < len(perObs) {
			next = perObs[o]
		}
		for _, r := range next {
			if f.once {
				break
			}
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
		st.in = st.take(next, c.SanitizeRecords, &f.san)
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
	// Repair and tally the records, and find the commit bound: the earliest
	// record any stream must hold — a 1→0 tail before the cutoff, or what
	// follows a step back in time — and the cutoff itself. A once state
	// commits everything.
	bound, bounded := cutoff, cutting
	records, responsive, runs := 0, 0, 0
	for o := range f.streams {
		st := &f.streams[o]
		cut := len(st.in)
		if cutting {
			for i, r := range st.in {
				if r.T >= cutoff {
					cut = i
					break
				}
			}
		}
		rep := st.rep
		up, n, hold := rep.Tally(st.in, c.Repair, cut, &st.flips)
		records, responsive, runs = records+len(st.in), responsive+up, runs+n
		// With repair off the stream's flips stay as Reset left them: none.
		f.flips[o] = st.flips
		if f.once {
			continue
		}
		for i := 1; i < hold; i++ {
			if st.in[i].T < st.in[i-1].T {
				hold = i
				break
			}
		}
		for _, r := range st.in[hold:] {
			if !bounded || r.T < bound {
				bound, bounded = r.T, true
			}
		}
	}
	// Commit every stream's records before the bound. They are a prefix of
	// each stream, in time order, and precede every record held or still to
	// come, so walking them now is walking the head of the whole stream.
	for o := range f.streams {
		in := f.streams[o].in
		k := len(in)
		if bounded {
			k = sort.Search(k, func(i int) bool { return in[i].T >= bound })
		}
		f.views[o] = in[:k]
	}
	if !f.committed {
		// The tally bounds the points the walk can produce.
		_ = f.acc.Reset(f.eb, runs)
	}
	// A once state's belief takes every record now, at the reply rate of
	// the streams as tallied, as outage.FromRecords estimates it (§2.8);
	// there is none when masking is off or nothing answered. Any other
	// state's belief cannot run before Analyze, and is traced.
	masking := c.OutageMaskMinHours >= 0
	var det *outage.Detector
	if f.once && masking && responsive > 0 {
		det, _ = outage.NewDetector(float64(responsive)/float64(records), outage.Params{})
	}
	traced := masking && !f.once
	f.cur.Dedup, f.cur.Resolve = !c.SanitizeRecords, c.Integrity
	f.cur.Reset(f.views, f.flips)
	walked := 0
	for run := f.cur.Next(); run != nil; run = f.cur.Next() {
		f.acc.Add(run)
		if det != nil {
			det.ObserveAll(run)
		}
		if traced {
			f.trace.Append(run)
		}
		walked += len(run)
		f.last, f.committed = run[0].T, true
	}
	if det != nil && walked < records {
		// The walk dropped records — cross-observer timestamp ties under
		// Integrity, duplicate floods with sanitizing off, never on clean
		// data — so the tally's reply rate is not the merged stream's. The
		// merged stream is traced instead, for Analyze to run the belief at
		// its own rate.
		det = nil
		f.cur.Reset(f.views, f.flips)
		for run := f.cur.Next(); run != nil; run = f.cur.Next() {
			f.trace.Append(run)
		}
	}
	f.det = det
	for o := range f.streams {
		st := &f.streams[o]
		k := len(f.views[o])
		if c.Repair && !f.once {
			st.rep.Tally(st.in[:k], true, k, &st.flips)
		}
		st.pend = f.keep(st.pend, st.in[k:])
		st.in = nil
	}
	return true
}

// take returns the stream's records to walk with next added to the held
// ones: next itself when nothing is held and it needs no sanitizing,
// otherwise pend, which holds them.
func (st *frontStream) take(next []probe.Record, sanitize bool, rep *reconstruct.SanitizeReport) []probe.Record {
	var in []probe.Record
	switch {
	case sanitize:
		// Append returns next itself when it has nothing to do on no tail.
		in = st.san.Append(st.pend, next, rep)
		if len(in) > 0 && len(next) > 0 && &in[0] == &next[0] {
			return in
		}
	case len(st.pend) > 0:
		in = append(st.pend, next...)
	default:
		return next
	}
	st.pend = in
	return in
}

// keep returns rest, what a stream holds after a commit, in pend's
// storage. A once state keeps that storage for the next block; a daemon's
// state gives up storage far beyond what is left, so that the advance that
// rebuilds it over a whole history does not leave it that much room for
// good.
func (f *FrontState) keep(pend, rest []probe.Record) []probe.Record {
	if !f.once && cap(pend) > 4*len(rest)+1024 {
		return append(make([]probe.Record, 0, 2*len(rest)), rest...)
	}
	return append(pend[:0], rest...)
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

// front finishes the record-level half provisionally: the held records,
// repaired from the committed state, walked onto a fork of the committed
// accumulator, and the belief over the committed trace and the held walk.
// A once state holds nothing, and has walked its belief already unless its
// walk dropped records.
func (f *FrontState) front(sc *Scratch) (*reconstruct.Series, []outage.Interval, reconstruct.SanitizeReport) {
	c := &f.cfg.c
	for o := range f.streams {
		st := &f.streams[o]
		rep := st.rep
		rep.Tally(st.pend, c.Repair, len(st.pend), &st.flips)
		f.views[o], f.flips[o] = st.pend, st.flips
	}
	traced := c.OutageMaskMinHours >= 0 && f.det == nil
	acc := f.acc.Fork()
	walked := sc.walked[:0]
	f.cur.Dedup, f.cur.Resolve = !c.SanitizeRecords, c.Integrity
	f.cur.Reset(f.views, f.flips)
	for run := f.cur.Next(); run != nil; run = f.cur.Next() {
		acc.Add(run)
		if traced {
			walked = append(walked, run...)
		}
	}
	series := acc.Finish()
	// As the once state's belief: the availability is the merged stream's
	// reply rate, and there is no belief when masking is off or nothing
	// answered.
	det := f.det
	if traced {
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
