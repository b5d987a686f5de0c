package reconstruct

import (
	"slices"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// Cursor walks per-observer record streams in merged order without
// materialising the merged stream. Next yields one equal-timestamp run at a
// time, and the runs concatenated are exactly what MergeInto — followed by
// ResolveContested when Resolve is set — writes over the streams as Load
// sanitized and repaired them, without writing them: streams interleave by
// (time, stream index), each stream itself time-ordered. The analysis
// kernel hands every run to the address-state Accumulator and the outage
// belief while it is in cache. The zero value is ready for Load or Reset;
// a Cursor is not safe for concurrent use.
type Cursor struct {
	// Dedup drops repeats of an address within one stream's run (first
	// observation wins, see appendRunDedup). Streams that Load sanitized, or
	// found clean, hold no such repeats: their walk may leave the scan off.
	Dedup bool
	// Resolve settles cross-stream disagreements as ResolveContested does.
	// Only runs that tie on their timestamp across streams can hold the
	// same (time, addr) pair twice, and a tie shows in the stream heads, so
	// the untied runs of healthy, unsynchronized observers pass untouched
	// and unscanned.
	Resolve bool

	// streams are the caller's, or a stream's sanitized copy in its head.
	streams [][]probe.Record
	heads   []head
	// sel is the stream holding the next run (-1: exhausted), selT its
	// timestamp: chosen one run ahead, so that a tie with the run just
	// taken is a comparison.
	sel  int
	selT int64
	// Records dropped since Rewind, and how far they lowered the count of
	// responsive ones.
	dropped, droppedUp int
	// A run repaired or de-duplicated, and the runs of one timestamp.
	rewritten, tied []probe.Record
}

// head is one stream's position in the walk. The timestamp there is kept
// beside it so that choosing the next run reads no record: the scan that
// found the end of the stream's last run has already loaded it.
type head struct {
	pos, end int   // next record, and the stream's length
	t        int64 // the timestamp at pos, while pos < end
	// The stream's repairs, and the first of them at or after pos
	// (math.MaxInt: none); its sanitized copy, when Load made one.
	flips     Flips
	flip      int
	sanitized []probe.Record
}

// Load points the cursor at the streams after the one pass that has to
// precede the walk, leaving them as they are. With san set, a stream that
// breaks Sanitize's invariants in san's window is sanitized, into rep, into
// a buffer the walk reads instead. The stream as walked is tallied —
// records, responsive records once repaired, equal-timestamp runs (a bound
// on the points the walk can produce) — with 1-loss repair when repair is
// set, kept as Flips the walk applies to the runs it yields.
func (c *Cursor) Load(streams [][]probe.Record, repair bool, san *Sanitizer) (records, responsive, runs int, rep SanitizeReport) {
	c.Reset(streams)
	for i, s := range c.streams {
		h := &c.heads[i]
		if san != nil && firstViolation(s, san.Start, san.End) < len(s) {
			h.sanitized = (&Sanitizer{Start: san.Start, End: san.End}).Append(h.sanitized[:0], s, &rep)
			s, c.streams[i] = h.sanitized, h.sanitized
		}
		var rp Repairer
		up, n, _ := rp.Tally(s, repair, len(s), &h.flips)
		records += len(s)
		responsive += up
		runs += n
	}
	c.Rewind()
	return records, responsive, runs, rep
}

// Reset points the cursor at the start of the streams as they are, with
// no repairs.
func (c *Cursor) Reset(streams [][]probe.Record) {
	c.streams = append(c.streams[:0], streams...)
	c.heads = slices.Grow(c.heads[:0], len(streams))[:len(streams)]
	for i := range c.heads {
		c.heads[i].flips = c.heads[i].flips[:0]
	}
	c.Rewind()
}

// Rewind restarts the walk over what Load or Reset set: the same streams,
// sanitized copies and repairs.
func (c *Cursor) Rewind() {
	for i, s := range c.streams {
		h := &c.heads[i]
		h.pos, h.end = 0, len(s)
		if len(s) > 0 {
			h.t = s[0].T
		}
		h.flip = h.flips.next(0)
	}
	c.dropped, c.droppedUp = 0, 0
	c.choose()
}

// Dropped returns how many records the walk since Rewind withheld —
// within-run duplicates and collapsed contests — and by how much that
// lowered the number of responsive records. Both are zero on clean data;
// when they are not, the tallies Load returned describe the streams
// walked, not the merged stream the walk delivered.
func (c *Cursor) Dropped() (records, responsive int) { return c.dropped, c.droppedUp }

// Next returns the next run of the merged stream, nil when the streams are
// exhausted. The run is valid until the following call.
func (c *Cursor) Next() []probe.Record {
	if c.sel < 0 {
		return nil
	}
	t := c.selT
	run := c.take()
	if c.Resolve && c.sel >= 0 && c.selT == t {
		// Another stream's run carries the same timestamp: in the merged
		// stream the two are one run to ResolveContested. Gather every tied
		// run and let it judge them.
		tied := append(c.tied[:0], run...)
		for c.sel >= 0 && c.selT == t {
			tied = append(tied, c.take()...)
		}
		n, up := len(tied), responsive(tied)
		tied = ResolveContested(tied)
		c.noteDropped(n, up, tied)
		c.tied = tied
		run = tied
	}
	return run
}

// take consumes the selected stream's whole run of equal timestamps, its
// repairs applied, and selects the next. Under the (T, stream index) order
// the entire run precedes every other stream's records — lower-index
// streams hold only later timestamps (they lost the scan), and equal-T
// records in higher-index streams sort after by the tie-break.
func (c *Cursor) take() []probe.Record {
	s := c.streams[c.sel]
	h := &c.heads[c.sel]
	i, j := h.pos, h.pos+1
	for j < len(s) && s[j].T == h.t {
		j++
	}
	h.pos = j
	if j < len(s) {
		h.t = s[j].T
	}
	c.choose()
	run := s[i:j]
	if h.flip < j {
		run = append(c.rewritten[:0], run...)
		for ; h.flip < j; h.flip = h.flips.next(h.flip + 1) {
			run[h.flip-i].Up = true
		}
		c.rewritten = run
	}
	if c.Dedup && runRepeats(run) {
		n, up := len(run), responsive(run)
		c.rewritten = appendRunDedup(c.rewritten[:0], run)
		c.noteDropped(n, up, c.rewritten)
		run = c.rewritten
	}
	return run
}

// choose selects the stream whose head is earliest, the lowest index among
// equals. It is a direct min-scan: with a handful of observers (the paper
// uses six sites at most) that beats a binary heap, whose
// interface-dispatched comparisons dominated the merge in profiles.
func (c *Cursor) choose() {
	best := -1
	var bestT int64
	for i := range c.heads {
		h := &c.heads[i]
		if h.pos == h.end {
			continue
		}
		if best == -1 || h.t < bestT {
			best, bestT = i, h.t
		}
	}
	c.sel, c.selT = best, bestT
}

// noteDropped accounts for a run of n records, up of them responsive, of
// which only kept reached the walk.
func (c *Cursor) noteDropped(n, up int, kept []probe.Record) {
	c.dropped += n - len(kept)
	c.droppedUp += up - responsive(kept)
}

// responsive counts the records that answered.
func responsive(records []probe.Record) int {
	up := 0
	for _, r := range records {
		if r.Up {
			up++
		}
	}
	return up
}
