package integrity

import (
	"math/bits"
	"sort"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// get reads one address's vote; only the reference implementation below
// probes votes an address at a time.
func (v *votes) get(addr uint8) (voted, isUp bool) {
	w, b := addr>>6, uint64(1)<<(addr&63)
	return v.voted[w]&b != 0, v.up[w]&b != 0
}

// checkReference is Check as it stood before the dense, bit-sliced
// rewrite — a map of buckets per observer, a map of every (T, addr) seen,
// and a per-address probe of every peer — kept verbatim as the oracle the
// differential tests and FuzzCheck hold Check to.
func checkReference(c Config, perObs [][]probe.Record, eb []int, start, end int64) []Verdict {
	c = c.withDefaults()
	out := make([]Verdict, len(perObs))
	var member [256]bool
	for _, a := range eb {
		if a >= 0 && a < 256 {
			member[a] = true
		}
	}

	// Per-stream sanity tallies and per-bucket votes. Votes only count
	// in-window member records — a record both gates reject must not
	// also poison the agreement comparison.
	perBucket := make([]map[int64]*votes, len(perObs))
	judged := 0
	for oi, records := range perObs {
		v := &out[oi]
		v.Observer = oi
		v.Records = len(records)
		if len(records) < c.minRecords {
			continue
		}
		judged++
		seen := make(map[uint64]struct{}, len(records))
		buckets := map[int64]*votes{}
		up := 0
		for _, r := range records {
			if r.Up {
				up++
			}
			key := uint64(r.T)<<8 | uint64(r.Addr)
			if _, dup := seen[key]; dup {
				v.Duplicates++
			} else {
				seen[key] = struct{}{}
			}
			if r.T < start || r.T >= end {
				v.OutOfWindow++
				continue
			}
			if !member[r.Addr] {
				v.NonMember++
				continue
			}
			bk := r.T / c.bucketSeconds
			bv := buckets[bk]
			if bv == nil {
				bv = &votes{}
				buckets[bk] = bv
			}
			bv.set(r.Addr, r.Up)
		}
		v.ReplyRate = float64(up) / float64(len(records))
		perBucket[oi] = buckets
	}

	// Leave-one-out peer reply-rate medians.
	rates := make([]float64, 0, judged)
	for oi := range out {
		if perBucket[oi] != nil {
			rates = append(rates, out[oi].ReplyRate)
		}
	}
	peerMedian := func(self float64) float64 {
		peers := make([]float64, 0, len(rates)-1)
		removed := false
		for _, r := range rates {
			if !removed && r == self {
				removed = true
				continue
			}
			peers = append(peers, r)
		}
		sort.Float64s(peers)
		return peers[len(peers)/2]
	}

	// Phase one: the per-stream gates, which need no peer votes. Reason
	// order puts physical impossibilities before statistical outliers.
	for oi := range out {
		v := &out[oi]
		if perBucket[oi] == nil {
			continue
		}
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
	}

	// Cross-observer agreement: each observer's (bucket, addr) votes
	// against the majority of its peers' votes on the same pair. Peer
	// ties say nothing and are skipped. Only streams still credible
	// after phase one vote in the majorities — a rate-limiting observer
	// floods the stream with false negatives, and letting those votes
	// count would tip legitimately-split pairs against honest observers
	// (the Byzantine frame-up).
	for oi := range perObs {
		buckets := perBucket[oi]
		if buckets == nil {
			continue
		}
		v := &out[oi]
		for bk, bv := range buckets {
			for w := 0; w < 4; w++ {
				rem := bv.voted[w]
				for rem != 0 {
					bit := uint8(bits.TrailingZeros64(rem))
					rem &= rem - 1
					addr := uint8(w<<6) | bit
					_, mine := bv.get(addr)
					peersUp, peersDown := 0, 0
					for pi, pb := range perBucket {
						if pi == oi || pb == nil || out[pi].Suspect {
							continue
						}
						pv := pb[bk]
						if pv == nil {
							continue
						}
						if voted, isUp := pv.get(addr); voted {
							if isUp {
								peersUp++
							} else {
								peersDown++
							}
						}
					}
					if peersUp == peersDown {
						continue
					}
					v.Comparisons++
					if mine == (peersUp > peersDown) {
						v.Matches++
					}
				}
			}
		}
	}

	// Phase two's verdict: a stream that survived the per-stream gates
	// but contradicts the credible-peer majority too often is suspect.
	suspects := 0
	for oi := range out {
		v := &out[oi]
		if perBucket[oi] == nil {
			continue
		}
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
