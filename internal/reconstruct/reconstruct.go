// Package reconstruct turns incremental probe observations into estimates
// of how many addresses in a /24 block are active over time (paper §2.3):
// each address keeps its last observed state until re-probed, and the
// estimate becomes valid once every ever-active address E(b) has been
// observed at least once. The package also implements 1-loss repair
// (§2.3, §3.3) and multi-observer merging (§2.7), which the analysis kernel
// runs as one merged-order walk: the Cursor feeding the Accumulator.
package reconstruct

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// Repair1Loss applies the paper's 1-loss repair to a single observer's
// record stream, in place: for each address, the observation pattern
// responsive → non-responsive → responsive (101) is rewritten to 111,
// because a lone non-response sandwiched between responses is more likely
// a lost query than a briefly unused address. Patterns 001, 110 and others
// are left untouched. Records must be in time order (as produced by the
// prober). The kernel keeps the repairs as Flips that its Cursor applies
// instead (core.FrontState); outside tests only the staged benchmark
// (bench/staged.go) calls this.
func Repair1Loss(records []probe.Record) {
	var r Repairer
	var flips Flips
	r.Tally(records, true, len(records), &flips)
	flips.Apply(records)
}

// Flips is 1-loss repair as data, so that a stream need not be written: one
// bit per record, set where the repair turned a non-response into a response.
type Flips []uint64

// Apply writes the flips into the records they were tallied over.
func (f Flips) Apply(records []probe.Record) {
	for i := f.next(0); i < len(records); i = f.next(i + 1) {
		records[i].Up = true
	}
}

// next returns the first flip at or after from (math.MaxInt: none).
func (f Flips) next(from int) int {
	for w := from >> 6; w < len(f); w, from = w+1, (w+1)<<6 {
		if word := f[w] >> (from & 63); word != 0 {
			return from + bits.TrailingZeros64(word)
		}
	}
	return math.MaxInt
}

// Repairer is 1-loss repair's state for one stream, resumable between
// pieces of it: the last responses of every address as bits, the newest
// lowest. An unseen address reads as not responsive, which can never
// complete a 101. The zero value is a stream's start.
type Repairer struct {
	hist [256]uint8
}

// Tally is the one per-stream pass ahead of the merged-order walk: 1-loss
// repair of the next records of the stream when repair is set, and the
// tallies the later stages need before their first record — how many
// records are responsive once repaired (the belief's availability) and how
// many equal-timestamp runs the records hold (the Series capacity). Repair
// has to be a pass of its own: 101 → 111 is decided by the address's next
// observation, up to |E(b)| rounds ahead, so merged order cannot decide it
// without rewriting counts already emitted. A 101 completed against a
// record of an earlier call changes the state only: that record was passed
// on before this call, so its caller held it or has already repaired it.
//
// Tally never writes the records: with repair set it resizes *flips to
// them and marks its repairs there.
//
// held is for a caller that passes records on before the stream ends: the
// index of the earliest of records[:cut] that a record from cut on could
// still repair — a 0 following a 1 as its address's last observation
// before cut — or cut when there is none or repair is off.
func (rp *Repairer) Tally(records []probe.Record, repair bool, cut int, flips *Flips) (responsive, runs, held int) {
	var fl Flips
	if repair {
		n := (len(records) + 63) / 64
		fl = slices.Grow((*flips)[:0], n)[:n]
		clear(fl)
		*flips = fl
	}
	// Where each address was last observed in records, plus one; 0 means
	// not in this call.
	var last [256]int
	var prevT int64
	if len(records) > 0 {
		runs, prevT = 1, records[0].T
	}
	held = -1
	for i, r := range records {
		if i == cut {
			held = rp.held(&last, cut, repair)
		}
		// The tallies are written as conditional values, not conditional
		// increments: whether a record answered or opened a run is as good
		// as random to a branch predictor, and the compiler turns this form
		// into flag arithmetic.
		var newRun, up int
		if r.T != prevT {
			newRun = 1
		}
		if r.Up {
			up = 1
		}
		runs += newRun
		responsive += up
		prevT = r.T
		if !repair {
			continue
		}
		h := rp.hist[r.Addr]<<1&0b111 | uint8(up)
		if h == 0b101 {
			if l := last[r.Addr] - 1; l >= 0 {
				fl[l>>6] |= 1 << (l & 63)
				responsive++
			}
			h = 0b111
		}
		rp.hist[r.Addr] = h
		last[r.Addr] = i + 1
	}
	if held < 0 {
		held = rp.held(&last, min(cut, len(records)), repair)
	}
	return responsive, runs, held
}

// held is Tally's held at cut, from the positions last holds.
func (rp *Repairer) held(last *[256]int, cut int, repair bool) int {
	held := cut
	if repair {
		for a, l := range last {
			if l > 0 && l-1 < held && rp.Open(uint8(a)) {
				held = l - 1
			}
		}
	}
	return held
}

// Open reports whether the address's last observation so far is a 0 after
// a 1: its next observation decides whether that 0 is repaired.
func (rp *Repairer) Open(addr uint8) bool { return rp.hist[addr]&0b11 == 0b10 }

// SanitizeReport counts what Sanitize quarantined from one record stream.
type SanitizeReport struct {
	// OutOfWindow records carried timestamps outside the collection
	// window (corrupted or clock-skewed past the edges).
	OutOfWindow int
	// Duplicates were exact repeats of an earlier (time, address,
	// response) observation — replayed batches.
	Duplicates int
	// Conflicts were repeats of a (time, address) pair disagreeing on the
	// response; the first observation wins.
	Conflicts int
	// Reordered counts records that arrived behind a later timestamp and
	// had to be re-sorted (no records are dropped for this).
	Reordered int
}

// Total returns the number of records removed from the stream.
func (r SanitizeReport) Total() int { return r.OutOfWindow + r.Duplicates + r.Conflicts }

// Merge accumulates another report into r.
func (r *SanitizeReport) Merge(o SanitizeReport) {
	r.OutOfWindow += o.OutOfWindow
	r.Duplicates += o.Duplicates
	r.Conflicts += o.Conflicts
	r.Reordered += o.Reordered
}

// Sanitize cleans one observer's record stream in place, quarantining the
// malformations a broken collection path introduces (§2.7's "occasionally
// broken observers"): records with timestamps outside [start, end) are
// dropped, out-of-order records are stably re-sorted by time, and repeats
// of a (time, address) pair are removed — exact repeats count as
// Duplicates, disagreeing repeats as Conflicts with the first observation
// kept. The returned slice aliases records. A clean stream passes through
// untouched with a zero report, so the pass is safe to run unconditionally.
// The kernel sanitizes a piece at a time with a Sanitizer
// (core.FrontState); outside tests only the staged benchmark
// (bench/staged.go) calls this.
func Sanitize(records []probe.Record, start, end int64) ([]probe.Record, SanitizeReport) {
	var rep SanitizeReport
	s := Sanitizer{Start: start, End: end}
	return s.Append(records[:0], records, &rep), rep
}

// firstViolation returns the index of the first record that breaks
// Sanitize's invariants — out of [start, end), behind the record before it,
// or an address repeated in one equal-timestamp run — or len(records): the
// one clean check of Sanitizer.Append.
func firstViolation(records []probe.Record, start, end int64) int {
	// Where each address was last seen; start-1 is no in-window timestamp
	// (it wraps to MaxInt64 at worst, which end excludes). In a time-ordered
	// prefix, the same address at the same timestamp is a repeat in a run.
	var seenAt [256]int64
	for a := range seenAt {
		seenAt[a] = start - 1
	}
	prevT := start
	for i, r := range records {
		if r.T < prevT || r.T >= end || seenAt[r.Addr] == r.T {
			return i
		}
		prevT, seenAt[r.Addr] = r.T, r.T
	}
	return len(records)
}

// Sanitizer is Sanitize taken a piece of a stream at a time: the window,
// and the last in-window timestamp the Reordered tally compares the next
// record against.
type Sanitizer struct {
	// Start and End bound the records kept: [Start, End).
	Start, End int64
	prevT      int64
	seen       bool
}

// Append sanitizes the next records of the stream onto tail and returns
// it, tallying into rep: records outside the window are dropped, the
// concatenation is stably re-sorted by time when next breaks its order,
// and repeats of a (time, address) pair within it are removed (the first
// observation kept). tail must be the sanitized end of the stream so far,
// holding every record of it at or after next's earliest timestamp; what
// precedes tail is then untouched by next, and the result is the one
// Sanitize gives the whole stream. tail may alias next's storage from
// below (Sanitize passes records[:0]).
//
// A clean next — firstViolation finds nothing, and it starts after tail
// and at or after the last record so far — is appended as it is, without
// the re-sort and the run scan; on an empty tail it is returned itself,
// uncopied, for the caller to read in place.
func (s *Sanitizer) Append(tail, next []probe.Record, rep *SanitizeReport) []probe.Record {
	if n := len(next); n == 0 {
		return tail
	} else if firstViolation(next, s.Start, s.End) == n &&
		(len(tail) == 0 || tail[len(tail)-1].T < next[0].T) && (!s.seen || s.prevT <= next[0].T) {
		s.prevT, s.seen = next[n-1].T, true
		if len(tail) == 0 {
			return next
		}
		return append(tail, next...)
	}
	from := len(tail)
	for _, r := range next {
		if r.T < s.Start || r.T >= s.End {
			rep.OutOfWindow++
			continue
		}
		if s.seen && r.T < s.prevT {
			rep.Reordered++
		}
		s.prevT, s.seen = r.T, true
		tail = append(tail, r)
	}
	for i := max(from, 1); i < len(tail); i++ {
		if tail[i].T < tail[i-1].T {
			sort.SliceStable(tail, func(i, j int) bool { return tail[i].T < tail[j].T })
			break
		}
	}
	// Within each equal-timestamp run (one probing round), keep the first
	// observation of each address.
	out := tail[:0]
	var seen, seenUp [256]bool
	var touched []uint8
	for i := 0; i < len(tail); {
		j := i
		for j < len(tail) && tail[j].T == tail[i].T {
			j++
		}
		for _, r := range tail[i:j] {
			if seen[r.Addr] {
				if seenUp[r.Addr] == r.Up {
					rep.Duplicates++
				} else {
					rep.Conflicts++
				}
				continue
			}
			seen[r.Addr] = true
			seenUp[r.Addr] = r.Up
			touched = append(touched, r.Addr)
			out = append(out, r)
		}
		for _, a := range touched {
			seen[a] = false
		}
		touched = touched[:0]
		i = j
	}
	return out
}

// MergeInto interleaves per-observer record streams into one time-ordered
// stream, reusing dst's capacity: the Cursor's walk, with the within-run
// duplicate scan on, appended run by run. Each input stream must itself be
// time-ordered; ties across streams resolve by stream index. The kernel
// walks the Cursor instead; outside tests only the staged benchmark
// (bench/staged.go) materialises the merge.
func MergeInto(dst []probe.Record, perObserver [][]probe.Record) []probe.Record {
	total := 0
	for _, s := range perObserver {
		total += len(s)
	}
	out := dst[:0]
	if cap(out) < total {
		out = make([]probe.Record, 0, total)
	}
	c := Cursor{Dedup: true}
	c.Reset(perObserver, nil)
	for run := c.Next(); run != nil; run = c.Next() {
		out = append(out, run...)
	}
	return out
}

// runRepeats reports whether an address occurs twice in one stream's
// equal-timestamp run. A healthy prober emits each address at most once
// per round, so this only fires on corrupt streams. Adaptive probing keeps
// runs short (a round stops at its first positive), so a quadratic scan
// with an early exit beats clearing a [256]bool per run.
func runRepeats(run []probe.Record) bool {
	for i := 1; i < len(run); i++ {
		for k := 0; k < i; k++ {
			if run[k].Addr == run[i].Addr {
				return true
			}
		}
	}
	return false
}

// appendRunDedup appends one stream's equal-timestamp run to out,
// dropping repeats of an address within the run (first observation
// wins) — a duplicate-flooded stream re-emitting a round at the same
// timestamp would otherwise re-enter the accumulator's state machine once
// per copy and inflate active-address counts through its last-write-wins
// rule. Runs from different observers are never collapsed here;
// cross-observer repeats are ResolveContested's job.
func appendRunDedup(out, run []probe.Record) []probe.Record {
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

// ResolveContested resolves cross-observer disagreements in a merged,
// time-ordered stream: when several observers report the same (time,
// addr) pair, the majority response wins instead of the stream-order
// last write that Reconstruct's accumulator would otherwise trust, and
// the pair collapses to a single record (at its first occurrence's
// position). Ties keep the first report's state. The compaction is in
// place; a stream with no repeated (time, addr) pairs — every merge of
// healthy observers, whose unsynchronized rounds never share timestamps
// — passes through bit-identical, which is what keeps the robust merge
// mode a no-op on clean worlds. The Cursor applies it to tied runs; it is
// exported for the staged benchmark (bench/staged.go).
func ResolveContested(merged []probe.Record) []probe.Record {
	out := merged[:0]
	for i := 0; i < len(merged); {
		j := i + 1
		for j < len(merged) && merged[j].T == merged[i].T {
			j++
		}
		run := merged[i:j]
		contested := false
	scan:
		for a := 1; a < len(run); a++ {
			for b := 0; b < a; b++ {
				if run[b].Addr == run[a].Addr {
					contested = true
					break scan
				}
			}
		}
		if !contested {
			// In-place forward copy: the write index never passes the
			// read index, and copy's memmove semantics handle overlap.
			out = append(out, run...)
			i = j
			continue
		}
		var total, up [256]int32
		for _, r := range run {
			total[r.Addr]++
			if r.Up {
				up[r.Addr]++
			}
		}
		var done [256]bool
		for _, r := range run {
			if done[r.Addr] {
				continue
			}
			done[r.Addr] = true
			rec := r
			if up[r.Addr]*2 > total[r.Addr] {
				rec.Up = true
			} else if up[r.Addr]*2 < total[r.Addr] {
				rec.Up = false
			}
			out = append(out, rec)
		}
		i = j
	}
	return out
}

// Series is a reconstructed active-address count over time: one point per
// probing timestamp once the reconstruction is complete.
type Series struct {
	Times  []int64
	Counts []float64
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Times) }

// Reconstruct runs the address-state accumulator over a merged,
// time-ordered record stream. eb is the block's ever-active target list
// E(b); output points begin once every address in eb has been observed at
// least once ("complete reconstruction", §2.3). It returns an error when
// eb is empty. The kernel feeds the Accumulator from the Cursor instead;
// outside tests only the staged benchmark (bench/staged.go) calls this.
func Reconstruct(merged []probe.Record, eb []int) (*Series, error) {
	// Pre-size the output: one point per equal-timestamp run is an upper
	// bound, counted in one read-only pass so the build loop never
	// reallocates mid-build.
	var rp Repairer
	_, points, _ := rp.Tally(merged, false, len(merged), nil)
	var acc Accumulator
	if err := acc.Reset(eb, points); err != nil {
		return nil, err
	}
	acc.Add(merged)
	return acc.Finish(), nil
}

// Accumulator is the address-state machine of the reconstruction, resumable
// between records: Reset it for a block, Add the merged, time-ordered
// stream in as many pieces as it arrives in, Finish for the Series — or
// Fork it to finish a Series of the stream so far and go on adding. The
// analysis kernel feeds it the Cursor's runs; Reconstruct feeds it a whole
// merged stream. Not safe for concurrent use.
type Accumulator struct {
	// The target list is a membership test on the record hot loop: an
	// array beats a map by an order of magnitude there.
	inEB  [256]bool
	nEB   int
	state [256]int8 // -1 unknown, 0 down, 1 up
	// seen counts targets observed at least once, up those last seen up.
	seen, up int
	// curT is the timestamp of the point being built, once started.
	curT    int64
	started bool
	times   []int64
	counts  []float64
	// forked is set while a Fork may be appending to the spare capacity of
	// times and counts; the next Add or Fork moves them first.
	forked bool
}

// Reset readies the accumulator for a block with target list eb and a
// Series of at most points points. It returns an error when eb is empty.
func (a *Accumulator) Reset(eb []int, points int) error {
	if len(eb) == 0 {
		return fmt.Errorf("reconstruct: empty target list")
	}
	// Addresses outside 0..255 can never match a record (Addr is uint8) but
	// still count as distinct targets, keeping completion semantics
	// unchanged.
	a.inEB = [256]bool{}
	a.nEB = 0
	var extra map[int]bool
	for _, addr := range eb {
		if addr >= 0 && addr < 256 {
			if !a.inEB[addr] {
				a.inEB[addr] = true
				a.nEB++
			}
		} else {
			if extra == nil {
				extra = make(map[int]bool)
			}
			if !extra[addr] {
				extra[addr] = true
				a.nEB++
			}
		}
	}
	for i := range a.state {
		a.state[i] = -1
	}
	a.seen, a.up = 0, 0
	a.curT, a.started = 0, false
	a.times = make([]int64, 0, points)
	a.counts = make([]float64, 0, points)
	a.forked = false
	return nil
}

// Fork returns a copy of the accumulator to finish a provisional Series on:
// Adds to the fork and its Finish leave a as it was. The fork appends its
// points in the spare capacity of a's columns, so a Series finished from it
// shares their prefix; a moves its columns before it next writes to them.
func (a *Accumulator) Fork() Accumulator {
	if a.forked {
		a.unfork()
	}
	a.forked = true
	f := *a
	f.forked = false
	return f
}

// unfork gives a columns of its own once a fork may have written past
// their length, with room for a refresh's worth of points.
func (a *Accumulator) unfork() {
	n := len(a.times)
	room := n + n/4 + 256
	a.times = append(make([]int64, 0, room), a.times...)
	a.counts = append(make([]float64, 0, room), a.counts...)
	a.forked = false
}

// Add advances the state machine over the next records of the merged
// stream: each target address keeps its last observed state, and a point is
// emitted for every timestamp left behind once all targets have been seen.
func (a *Accumulator) Add(records []probe.Record) {
	if a.forked {
		a.unfork()
	}
	seen, up := a.seen, a.up
	curT, started := a.curT, a.started
	for i := range records {
		r := &records[i]
		addr := int(r.Addr)
		if !a.inEB[addr] {
			continue
		}
		if started && r.T != curT {
			if seen == a.nEB {
				a.times = append(a.times, curT)
				a.counts = append(a.counts, float64(up))
			}
		}
		curT = r.T
		started = true
		old := a.state[addr]
		if old == -1 {
			seen++
		}
		if old == 1 {
			up--
		}
		// A conditional value, not a conditional store: whether a record
		// answered is as good as random to a branch predictor.
		var now int8
		if r.Up {
			now = 1
		}
		a.state[addr] = now
		up += int(now)
	}
	a.seen, a.up = seen, up
	a.curT, a.started = curT, started
}

// Finish emits the last point and returns the Series, which the
// accumulator lets go of; Reset comes before the next Add.
func (a *Accumulator) Finish() *Series {
	if a.started && a.seen == a.nEB {
		a.times = append(a.times, a.curT)
		a.counts = append(a.counts, float64(a.up))
	}
	s := &Series{Times: a.times, Counts: a.counts}
	a.times, a.counts = nil, nil
	return s
}

// Resample projects the series onto a regular grid of step seconds
// spanning [start, end): each bin takes the mean of the points falling in
// it, empty bins carry the previous bin's value forward, and leading empty
// bins take the first observed value. It returns nil when the series has
// no points or the window is empty.
func (s *Series) Resample(start, end, step int64) []float64 {
	vals, _ := s.ResampleWithGaps(start, end, step, 0)
	return vals
}

// ResampleScratch holds the working buffers of ResampleInto so repeated
// resampling (the block classifier resamples every 28-day segment of every
// block) reuses memory instead of allocating three slices per call. Not
// safe for concurrent use.
type ResampleScratch struct {
	sums   []float64
	counts []int
	out    []float64
}

// ResampleInto is Resample writing into scratch-owned buffers. The returned
// slice is valid until the next call with the same scratch; it must not be
// retained. Semantics are identical to Resample (no gap marking).
func (s *Series) ResampleInto(sc *ResampleScratch, start, end, step int64) []float64 {
	if s.Len() == 0 || end <= start || step <= 0 {
		return nil
	}
	n := int((end - start + step - 1) / step)
	if cap(sc.sums) < n {
		sc.sums = make([]float64, n)
		sc.counts = make([]int, n)
		sc.out = make([]float64, n)
	}
	sums := sc.sums[:n]
	counts := sc.counts[:n]
	out := sc.out[:n]
	for i := range sums {
		sums[i] = 0
		counts[i] = 0
	}
	if !s.resampleMeans(sums, counts, out, start, end, step) {
		return nil
	}
	return out
}

// resampleMeans bins the series into the pre-sized (and zeroed) sums/counts
// buffers, then fills out with per-bin means, carrying values forward over
// empty bins and backfilling leading ones. Returns false when no point
// falls inside the window.
func (s *Series) resampleMeans(sums []float64, counts []int, out []float64, start, end, step int64) bool {
	n := len(out)
	for i, t := range s.Times {
		if t < start || t >= end {
			continue
		}
		bin := int((t - start) / step)
		sums[bin] += s.Counts[i]
		counts[bin]++
	}
	first := -1
	for i := 0; i < n; i++ {
		if counts[i] > 0 {
			out[i] = sums[i] / float64(counts[i])
			if first == -1 {
				first = i
			}
		} else if first >= 0 {
			out[i] = out[i-1]
		} else {
			out[i] = 0
		}
	}
	if first == -1 {
		return false
	}
	for i := 0; i < first; i++ {
		out[i] = out[first]
	}
	return true
}

// ResampleWithGaps is Resample plus a per-bin confidence mask: conf[i] is
// false when bin i holds no measurement and the nearest measured bin (in
// either direction) is more than maxGap seconds away — the value was
// carried forward or backfilled across a gap too long to trust, such as an
// observer outage, rather than ordinary probe spacing. maxGap <= 0
// disables gap marking (every bin is confident). Both returns are nil when
// the series has no points in the window or the window is empty.
func (s *Series) ResampleWithGaps(start, end, step, maxGap int64) ([]float64, []bool) {
	if s.Len() == 0 || end <= start || step <= 0 {
		return nil, nil
	}
	n := int((end - start + step - 1) / step)
	sums := make([]float64, n)
	counts := make([]int, n)
	out := make([]float64, n)
	if !s.resampleMeans(sums, counts, out, start, end, step) {
		return nil, nil
	}
	conf := make([]bool, n)
	if maxGap <= 0 {
		for i := range conf {
			conf[i] = true
		}
		return out, conf
	}
	// Distance (in bins) to the nearest measured bin on either side.
	maxBins := int(maxGap / step)
	prev := -1
	dist := make([]int, n)
	for i := 0; i < n; i++ {
		if counts[i] > 0 {
			prev = i
			dist[i] = 0
			continue
		}
		if prev < 0 {
			dist[i] = n // no measurement yet; bounded by the next pass
		} else {
			dist[i] = i - prev
		}
	}
	next := -1
	for i := n - 1; i >= 0; i-- {
		if counts[i] > 0 {
			next = i
		} else if next >= 0 && next-i < dist[i] {
			dist[i] = next - i
		}
		conf[i] = dist[i] <= maxBins
	}
	return out, conf
}

// DailySwings returns, for each complete UTC day covered by the series,
// the range (max - min) of the reconstructed count — the paper's
// midnight-to-midnight daily swing (§2.4). Days with no points are
// omitted; the returned day indices are UTC days since the epoch.
func (s *Series) DailySwings() (days []int64, swings []float64) {
	if s.Len() == 0 {
		return nil, nil
	}
	var curDay int64
	var min, max float64
	have := false
	flush := func() {
		if have {
			days = append(days, curDay)
			swings = append(swings, max-min)
		}
	}
	for i, t := range s.Times {
		d := t / 86400
		if !have || d != curDay {
			flush()
			curDay = d
			min, max = s.Counts[i], s.Counts[i]
			have = true
			continue
		}
		if s.Counts[i] < min {
			min = s.Counts[i]
		}
		if s.Counts[i] > max {
			max = s.Counts[i]
		}
	}
	flush()
	return days, swings
}

// ObserverHealth accumulates per-observer reply statistics across many
// blocks, the §2.7 cross-check ("we analyze each observer independently
// and compare their results against each other") that led the paper to
// discard sites c and g in 2020 after hardware problems.
type ObserverHealth struct {
	up, total []int64
}

// NewObserverHealth tracks n observers.
func NewObserverHealth(n int) *ObserverHealth {
	return &ObserverHealth{up: make([]int64, n), total: make([]int64, n)}
}

// Add folds one block's per-observer record streams into the tallies.
// Streams beyond the tracked observer count are ignored.
func (h *ObserverHealth) Add(perObserver [][]probe.Record) {
	for oi, records := range perObserver {
		if oi >= len(h.up) {
			break
		}
		for _, r := range records {
			h.total[oi]++
			if r.Up {
				h.up[oi]++
			}
		}
	}
}

// Merge folds o's tallies into h as if o's blocks had been added to h:
// observers beyond h's tracked count are ignored. The tallies are
// integer sums, so they do not depend on the order blocks arrive in.
func (h *ObserverHealth) Merge(o *ObserverHealth) {
	for i := range o.up {
		if i >= len(h.up) {
			break
		}
		h.up[i] += o.up[i]
		h.total[i] += o.total[i]
	}
}

// Rates returns each observer's aggregate reply rate (0 for observers
// with no records).
func (h *ObserverHealth) Rates() []float64 {
	out := make([]float64, len(h.up))
	for i := range out {
		if h.total[i] > 0 {
			out[i] = float64(h.up[i]) / float64(h.total[i])
		}
	}
	return out
}

// Suspect returns the indices of observers whose reply rate sits more
// than tol below the median of all observers — the signature of a broken
// site or a badly congested upstream. Observers with no records are also
// suspect. With zero tracked observers it returns nil.
func (h *ObserverHealth) Suspect(tol float64) []int {
	rates := h.Rates()
	if len(rates) == 0 {
		return nil
	}
	sorted := append([]float64(nil), rates...)
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	var out []int
	for i, r := range rates {
		if h.total[i] == 0 || r < med-tol {
			out = append(out, i)
		}
	}
	return out
}
