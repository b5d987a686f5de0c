package reconstruct

import (
	"slices"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// Cursor walks per-observer record streams in merged order without
// materialising the merged stream. Next yields one equal-timestamp run at a
// time, and the runs concatenated are exactly what MergeInto — followed by
// ResolveContested when Resolve is set — writes over the streams with
// their repairs applied, without writing them: streams interleave by
// (time, stream index), each stream itself time-ordered. The analysis
// kernel hands every run to the address-state Accumulator and the outage
// belief while it is in cache. The zero value is ready for Reset; a Cursor
// is not safe for concurrent use.
type Cursor struct {
	// Dedup drops repeats of an address within one stream's run (first
	// observation wins, see appendRunDedup). Sanitized streams hold no such
	// repeats: their walk may leave the scan off.
	Dedup bool
	// Resolve settles cross-stream disagreements as ResolveContested does.
	// Only runs that tie on their timestamp across streams can hold the
	// same (time, addr) pair twice, and a tie shows in the stream heads, so
	// the untied runs of healthy, unsynchronized observers pass untouched
	// and unscanned.
	Resolve bool

	streams [][]probe.Record
	heads   []head
	// sel is the stream holding the next run (-1: exhausted), selT its
	// timestamp: chosen one run ahead, so that a tie with the run just
	// taken is a comparison.
	sel  int
	selT int64
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
	// (math.MaxInt: none).
	flips Flips
	flip  int
}

// Reset points the cursor at the start of the streams, leaving them as
// they are. flips, when not nil, holds each stream's 1-loss repairs as
// Repairer.Tally marked them, applied to the runs the walk yields; the
// cursor reads both until the next Reset.
func (c *Cursor) Reset(streams [][]probe.Record, flips []Flips) {
	c.streams = append(c.streams[:0], streams...)
	c.heads = slices.Grow(c.heads[:0], len(streams))[:len(streams)]
	for i, s := range streams {
		h := &c.heads[i]
		h.pos, h.end, h.flips = 0, len(s), nil
		if len(s) > 0 {
			h.t = s[0].T
		}
		if flips != nil {
			h.flips = flips[i]
		}
		h.flip = h.flips.next(0)
	}
	c.choose()
}

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
		tied = ResolveContested(tied)
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
		c.rewritten = appendRunDedup(c.rewritten[:0], run)
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
