package reconstruct

import "github.com/diurnalnet/diurnal/internal/probe"

// Cursor walks per-observer record streams in merged order without
// materialising the merged stream. Next yields one equal-timestamp run at a
// time, and the runs concatenated are exactly what MergeInto — followed by
// ResolveContested when Resolve is set — writes: streams interleave by
// (time, stream index), each stream itself time-ordered. The analysis
// kernel hands every run to the address-state Accumulator and the outage
// belief while it is in cache; MergeInto appends them. The zero value is
// ready for Load or Reset; a Cursor is not safe for concurrent use.
type Cursor struct {
	// Dedup drops repeats of an address within one stream's run (first
	// observation wins, see appendRunDedup). Streams that passed Sanitize,
	// or that a clean-by-construction prober emitted, hold no such repeats,
	// and their walk may leave the scan off.
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
	// Records dropped since Reset, and how far they lowered the count of
	// responsive ones.
	dropped, droppedUp int
	deduped, tied      []probe.Record
}

// head is one stream's position in the walk. The timestamp there is kept
// beside it so that choosing the next run reads no record: the scan that
// found the end of the stream's last run has already loaded it.
type head struct {
	pos, end int   // next record, and the stream's length
	t        int64 // the timestamp at pos, while pos < end
}

// Load points the cursor at the streams after the one pass that has to
// precede the walk: 1-loss repair of each stream in place when repair is
// set, and the tallies over all of them — records, responsive records once
// repaired, and equal-timestamp runs (an upper bound on the points the walk
// can produce).
func (c *Cursor) Load(streams [][]probe.Record, repair bool) (records, responsive, runs int) {
	for _, s := range streams {
		up, n := repairTally(s, repair)
		records += len(s)
		responsive += up
		runs += n
	}
	c.Reset(streams)
	return records, responsive, runs
}

// Reset points the cursor at the start of the streams as they are.
func (c *Cursor) Reset(streams [][]probe.Record) {
	c.streams = streams
	if cap(c.heads) < len(streams) {
		c.heads = make([]head, len(streams))
	}
	c.heads = c.heads[:len(streams)]
	for i, s := range streams {
		c.heads[i] = head{end: len(s)}
		if len(s) > 0 {
			c.heads[i].t = s[0].T
		}
	}
	c.dropped, c.droppedUp = 0, 0
	c.choose()
}

// Dropped returns how many records the walk since Reset withheld —
// within-run duplicates and collapsed contests — and by how much that
// lowered the number of responsive records. Both are zero on clean data;
// when they are not, the tallies Load returned describe the streams, not
// the merged stream the walk delivered.
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

// take consumes the selected stream's whole run of equal timestamps and
// selects the next. Under the (T, stream index) order the entire run
// precedes every other stream's records — lower-index streams hold only
// later timestamps (they lost the scan), and equal-T records in
// higher-index streams sort after by the tie-break.
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
	if c.Dedup && runRepeats(run) {
		c.deduped = appendRunDedup(c.deduped[:0], run)
		c.noteDropped(len(run), responsive(run), c.deduped)
		run = c.deduped
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
