// Package integrity is the data-quality firewall between observer
// collection and reconstruction: per-observer, per-block sanity gates
// plus a cross-observer agreement score that together decide whether an
// observer's stream can be trusted in this block's merge.
//
// PRs 1–9 hardened the pipeline against observers that fail — downtime,
// stalls, crashes, torn disks. This package hardens it against
// observers that lie: rate-limited, spoofed, duplicated, or replayed
// replies are well-formed records of wrong facts, invisible to crash
// containment and checksums. The defense is the paper's own §2.7
// insight turned adversarial: nearby vantage points share signal, so an
// observer whose stream violates basic physics (timestamps outside the
// collection window, addresses outside the target list E(b), duplicate
// observations) or contradicts its peers on the windows they overlap is
// excluded from the merge for that block, and the verdict is attributed
// in the run report.
//
// Check is pure: it judges streams and returns verdicts without
// mutating anything. Callers (core's integrity prober, the streaming
// daemon's per-round gate) zero the gated streams themselves.
//
// Check runs on every block of a guarded scan, so it is built to cost
// less than the analysis it guards: no hashing and no per-address work.
// Votes live in a dense table — one row per bucket the in-window data
// touches, one 64-byte votes cell per judged stream — recycled through a
// pool. Duplicates are counted with a 256-bit set of the addresses seen
// at the current timestamp, which is exact on a stream whose timestamps
// never decrease; only a stream found out of order is recounted with a
// map. The agreement tally sums the credible streams' votes into
// bit-sliced counters and scores 64 addresses per word operation. The
// map-based implementation this replaced is the tests' oracle
// (reference_test.go).
package integrity

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// The firewall's gate ceilings, each a fraction of the observer's own
// records.
const (
	// maxOutOfWindow is the ceiling on the fraction of records
	// timestamped outside the collection window.
	maxOutOfWindow = 0.05
	// maxNonMember is the ceiling on the fraction of records naming
	// addresses outside the block's target list E(b). Honest observers
	// probe only E(b), so the honest rate is zero.
	maxNonMember = 0.02
	// maxDuplicate is the ceiling on the fraction of records repeating
	// an exact (time, addr) observation already in the stream.
	maxDuplicate = 0.05
	// maxRateDelta is the relative reply-rate shortfall versus the
	// leave-one-out peer median before an observer is suspect: a stream
	// whose positives were rate-limited away answers markedly less than
	// its peers over the same block. It is deliberately loose — honest
	// observers on unlucky probing phases run noticeably below the
	// median in sparse blocks, and a false accusation costs real
	// coverage. The gate needs at least three judged streams — with
	// fewer there is no median to deviate from.
	maxRateDelta = 0.5
	// minAgreement is the floor on the cross-observer agreement score
	// (matching votes / compared votes) before an observer is suspect.
	minAgreement = 0.5
)

// Config exports nothing: the firewall runs one fixed configuration. Its
// zero value takes the defaults of its three fields, which only this
// package's differential tests vary.
type Config struct {
	// bucketSeconds is the cross-observer agreement granularity:
	// observations of the same address within the same aligned bucket
	// are treated as overlapping and compared (default 3600).
	// Unsynchronized observers never share exact timestamps, so the
	// agreement check needs a coarser notion of "the same time".
	bucketSeconds int64
	// minOverlap is the minimum number of compared votes before the
	// agreement gate may fire (default 12) — two observers that barely
	// overlap say nothing about each other.
	minOverlap int
	// minRecords is the minimum stream size before a stream is judged
	// at all (default 32): a handful of records has no stable rates.
	minRecords int
}

func (c Config) withDefaults() Config {
	if c.bucketSeconds <= 0 {
		c.bucketSeconds = 3600
	}
	if c.minOverlap <= 0 {
		c.minOverlap = 12
	}
	if c.minRecords <= 0 {
		c.minRecords = 32
	}
	return c
}

// Verdict is one observer's judgment for one block.
type Verdict struct {
	// Observer is the engine observer index the verdict is about.
	Observer int
	// Records is the stream's record count.
	Records int
	// OutOfWindow, NonMember, and Duplicates count the records each
	// sanity gate flagged.
	OutOfWindow, NonMember, Duplicates int
	// ReplyRate is the stream's positive-reply fraction; PeerRate is
	// the leave-one-out median of the other judged streams (zero when
	// fewer than three streams were judged).
	ReplyRate, PeerRate float64
	// Matches and Comparisons are the cross-observer agreement tally:
	// of the (bucket, addr) votes this observer shares with a peer
	// majority, how many agree.
	Matches, Comparisons int
	// Suspect marks a stream that tripped at least one gate; Gated
	// marks a suspect stream actually excluded from the merge (never
	// every stream at once — with no honest reference the firewall
	// cannot tell who is lying and keeps them all).
	Suspect, Gated bool
	// Reason names the first gate the stream tripped ("" when clean):
	// out-of-window, non-member, duplicates, reply-rate, disagreement.
	Reason string
}

// AgreementScore returns matches/comparisons, or 1 when the observer
// overlapped no peer (no evidence of disagreement).
func (v *Verdict) AgreementScore() float64 {
	if v.Comparisons == 0 {
		return 1
	}
	return float64(v.Matches) / float64(v.Comparisons)
}

// votes is one observer's voting record for one bucket: a bit per
// address for "voted at all" and "last vote was up". The last observation
// of an address within a bucket wins, mirroring Reconstruct's accumulator.
type votes struct {
	voted, up [4]uint64
}

func (v *votes) set(addr uint8, isUp bool) {
	w, b := addr>>6, uint64(1)<<(addr&63)
	v.voted[w] |= b
	if isUp {
		v.up[w] |= b
	} else {
		v.up[w] &^= b
	}
}

// scratch is the working memory of one Check call, recycled through
// scratchPool so a steady stream of blocks allocates only the verdicts.
type scratch struct {
	// table is the dense vote table: one row per bucket, counted from the
	// first bucket any judged stream has an in-window record in, holding
	// one votes per judged stream.
	table []votes
	// judged lists the observer indexes of the judged streams; the i-th
	// owns column i of table.
	judged []int
	// credible marks the judged streams still unsuspected after the
	// per-stream gates: the only ones that vote in the majorities.
	credible     []bool
	rates, peers []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Check judges each observer's raw record stream for one block against
// the collection window [start, end) and the target list eb, and
// returns one verdict per stream. Streams shorter than minRecords are
// never judged (their verdicts stay clean), and when every judged
// stream is suspect none is gated. perObs is not modified and nothing of
// it is retained.
func Check(c Config, perObs [][]probe.Record, eb []int, start, end int64) []Verdict {
	c = c.withDefaults()
	out := make([]Verdict, len(perObs))
	var member [4]uint64
	for _, a := range eb {
		if a >= 0 && a < 256 {
			member[a>>6] |= 1 << (a & 63)
		}
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)

	// Which streams are judged, and the span of their in-window
	// timestamps: the vote table covers the buckets that span touches and
	// no more, so a window far looser than the data costs nothing.
	s.judged = s.judged[:0]
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for oi, records := range perObs {
		out[oi].Observer = oi
		out[oi].Records = len(records)
		if len(records) < c.minRecords {
			continue
		}
		s.judged = append(s.judged, oi)
		for i := range records {
			if t := records[i].T; t >= start && t < end {
				lo, hi = min(lo, t), max(hi, t)
			}
		}
	}
	judged := len(s.judged)
	loBucket, buckets := int64(0), 0
	if lo <= hi {
		loBucket = lo / c.bucketSeconds
		buckets = int(hi/c.bucketSeconds-loBucket) + 1
	}
	if n := buckets * judged; cap(s.table) < n {
		s.table = make([]votes, n)
	} else {
		s.table = s.table[:n]
		clear(s.table)
	}

	// Per-stream sanity tallies and per-bucket votes. Votes only count
	// in-window member records — a record both gates reject must not
	// also poison the agreement comparison.
	win := window{start, end, c.bucketSeconds, loBucket}
	for ji, oi := range s.judged {
		s.tally(ji, &out[oi], perObs[oi], &member, win)
	}

	// Leave-one-out peer reply-rate medians.
	s.rates = s.rates[:0]
	for _, oi := range s.judged {
		s.rates = append(s.rates, out[oi].ReplyRate)
	}
	peerMedian := func(self float64) float64 {
		s.peers = s.peers[:0]
		removed := false
		for _, r := range s.rates {
			if !removed && r == self {
				removed = true
				continue
			}
			s.peers = append(s.peers, r)
		}
		slices.Sort(s.peers)
		return s.peers[len(s.peers)/2]
	}

	// Phase one: the per-stream gates, which need no peer votes. Reason
	// order puts physical impossibilities before statistical outliers.
	s.credible = s.credible[:0]
	for _, oi := range s.judged {
		v := &out[oi]
		n := float64(v.Records)
		switch {
		case float64(v.OutOfWindow)/n > maxOutOfWindow:
			v.Suspect, v.Reason = true, "out-of-window"
		case float64(v.NonMember)/n > maxNonMember:
			v.Suspect, v.Reason = true, "non-member"
		case float64(v.Duplicates)/n > maxDuplicate:
			v.Suspect, v.Reason = true, "duplicates"
		default:
			if judged >= 3 {
				v.PeerRate = peerMedian(v.ReplyRate)
				if v.ReplyRate < v.PeerRate*(1-maxRateDelta) {
					v.Suspect, v.Reason = true, "reply-rate"
				}
			}
		}
		s.credible = append(s.credible, !v.Suspect)
	}

	s.agreement(out)

	// Phase two's verdict: a stream that survived the per-stream gates
	// but contradicts the credible-peer majority too often is suspect.
	suspects := 0
	for _, oi := range s.judged {
		v := &out[oi]
		if !v.Suspect && v.Comparisons >= c.minOverlap && v.AgreementScore() < minAgreement {
			v.Suspect, v.Reason = true, "disagreement"
		}
		if v.Suspect {
			suspects++
		}
	}
	if suspects == judged {
		// Every judged stream is suspect: no honest reference remains,
		// so the firewall keeps them all rather than guessing.
		return out
	}
	for oi := range out {
		out[oi].Gated = out[oi].Suspect
	}
	return out
}

// window is the collection window and how it is cut into vote buckets.
type window struct {
	start, end    int64
	bucketSeconds int64
	loBucket      int64 // the bucket (T / bucketSeconds) of the vote table's first row
}

// tally makes the one pass over the ji-th judged stream: reply rate, the
// three sanity tallies, and the stream's votes into column ji of the
// vote table.
//
// Duplicates need no memory of the whole stream when timestamps never
// decrease: every repeat of a (T, addr) pair then lies inside the run of
// records sharing T, so a 256-bit set of the addresses seen in the
// current run, emptied whenever T changes, counts them exactly. A
// stream found out of order (a replayed or time-shifted one) is
// recounted by countDuplicates.
func (s *scratch) tally(ji int, v *Verdict, records []probe.Record, member *[4]uint64, win window) {
	var (
		run     [4]uint64 // addresses seen at timestamp runT
		runT    = records[0].T
		ordered = true
		up      = 0
	)
	for _, r := range records {
		if r.Up {
			up++
		}
		if r.T != runT {
			if r.T < runT {
				ordered = false
			}
			run, runT = [4]uint64{}, r.T
		}
		w, b := r.Addr>>6, uint64(1)<<(r.Addr&63)
		if run[w]&b != 0 {
			v.Duplicates++
		}
		run[w] |= b
		if r.T < win.start || r.T >= win.end {
			v.OutOfWindow++
			continue
		}
		if member[w]&b == 0 {
			v.NonMember++
			continue
		}
		row := int(r.T/win.bucketSeconds - win.loBucket)
		s.table[row*len(s.judged)+ji].set(r.Addr, r.Up)
	}
	v.ReplyRate = float64(up) / float64(len(records))
	// The recount's key keeps 56 bits of T, so timestamps further apart
	// than that collide in it; only the recount reproduces those.
	const keyRange = int64(1) << 55
	if !ordered || records[0].T < -keyRange || runT >= keyRange {
		v.Duplicates = countDuplicates(records)
	}
}

// countDuplicates counts the records repeating an earlier (T, addr) pair
// of a stream in any order.
func countDuplicates(records []probe.Record) int {
	seen := make(map[uint64]struct{}, len(records))
	for _, r := range records {
		seen[uint64(r.T)<<8|uint64(r.Addr)] = struct{}{}
	}
	return len(records) - len(seen)
}

// agreement scores every judged stream's (bucket, addr) votes against the
// majority of its peers' votes on the same pair, 64 addresses at a time.
// Peer ties say nothing and are skipped. Only streams still credible
// after phase one vote in the majorities — a rate-limiting observer
// floods the stream with false negatives, and letting those votes count
// would tip legitimately-split pairs against honest observers (the
// Byzantine frame-up) — but suspects are still scored.
//
// Per bucket and word, the credible streams' votes are summed once into a
// bit-sliced margin (plane i holds bit i of all 64 addresses' up-votes
// minus down-votes, two's complement). A stream's peers' margin is that
// sum less its own vote, so a credible up-voter sees a peer majority up
// where the sum is at least 2 and down where it is at most 0, a credible
// down-voter the mirror image, and a suspect, absent from the sum, reads
// its sign directly.
func (s *scratch) agreement(out []Verdict) {
	judged := len(s.judged)
	if judged == 0 {
		return
	}
	var buf [65]uint64
	margin := buf[:bits.Len(uint(judged))+1] // holds −judged … judged
	for row := s.table; len(row) > 0; row = row[judged:] {
		for w := 0; w < 4; w++ {
			clear(margin)
			var voted uint64
			for ji, credible := range s.credible {
				cell := &row[ji]
				voted |= cell.voted[w]
				if credible {
					increment(margin, cell.up[w])
					decrement(margin, cell.voted[w]&^cell.up[w])
				}
			}
			if voted == 0 {
				continue
			}
			// Address masks by margin: negative, positive, exactly ±1.
			top := len(margin) - 1
			neg, plusOne, minusOne := margin[top], margin[0], margin[0]
			var high uint64
			for _, plane := range margin[1:] {
				high |= plane
				minusOne &= plane
			}
			plusOne &^= high
			pos := (margin[0] | high) &^ neg
			for ji, oi := range s.judged {
				cell := &row[ji]
				up, down := cell.up[w], cell.voted[w]&^cell.up[w]
				var agree, differ uint64 // with a peer majority
				if s.credible[ji] {
					agree = up&pos&^plusOne | down&neg&^minusOne
					differ = up&^pos | down&^neg
				} else {
					agree = up&pos | down&neg
					differ = up&neg | down&pos
				}
				out[oi].Matches += bits.OnesCount64(agree)
				out[oi].Comparisons += bits.OnesCount64(agree | differ)
			}
		}
	}
}

// increment adds one to the bit-sliced counters of the addresses in x, a
// ripple carry across the planes; decrement subtracts one, rippling the
// borrow. Both wrap like the two's-complement integers the planes spell.
func increment(planes []uint64, x uint64) {
	for i := 0; x != 0 && i < len(planes); i++ {
		planes[i], x = planes[i]^x, planes[i]&x
	}
}

func decrement(planes []uint64, x uint64) {
	for i := 0; x != 0 && i < len(planes); i++ {
		planes[i], x = planes[i]^x, x&^planes[i]
	}
}
