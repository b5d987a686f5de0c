package stream

// The round journal's codec: packed round frames come back bit-identical
// from a faulty feed, and corrupt ones fail without panicking or
// allocating past their size.

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// sameRound reports whether a and b hold the same round, record for
// record; an empty stream equals a nil one.
func sameRound(a, b *Round) bool {
	if a.Seq != b.Seq || a.Start != b.Start || a.End != b.End || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for blk := range a.Blocks {
		if len(a.Blocks[blk]) != len(b.Blocks[blk]) {
			return false
		}
		for o, recs := range a.Blocks[blk] {
			other := b.Blocks[blk][o]
			if len(recs) != len(other) {
				return false
			}
			for i := range recs {
				if recs[i] != other[i] {
					return false
				}
			}
		}
	}
	return true
}

// faultyRounds is every round of a three-block world fed through the
// fault plan at full severity: a fast, drifting clock, duplicated,
// reordered and truncated batches, loss and a downtime.
func faultyRounds(t testing.TB) []*Round {
	t.Helper()
	world := testWorld(t, 3, 4242)
	start, _ := testWindow()
	eng := &faults.Engine{Inner: testEngine(11), Plan: faults.DefaultPlan(3, 1, start, 23)}
	f := testFeeder(t, eng, world, testConfig().withDefaults())
	rounds := make([]*Round, f.Rounds())
	for i := range rounds {
		r, err := f.Round(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		rounds[i] = r
	}
	return rounds
}

// TestPackedRoundRoundTrip: every round of a faulty feed, and rounds with
// records before their start, far outside their window and at the
// extremes of int64, empty streams and no blocks, decode from their
// packed frame bit-identical to the original, and equal to what their
// gob frame decodes to.
func TestPackedRoundRoundTrip(t *testing.T) {
	rounds := faultyRounds(t)
	var early, backwards bool
	for _, r := range rounds {
		for _, perObs := range r.Blocks {
			for _, recs := range perObs {
				for i, rec := range recs {
					early = early || rec.T < r.Start
					backwards = backwards || (i > 0 && rec.T < recs[i-1].T)
				}
			}
		}
	}
	if !early || !backwards {
		t.Fatalf("the faulty feed has records before their round's start: %v, out of order: %v; the round trip would miss them", early, backwards)
	}
	rounds = append(rounds,
		&Round{Seq: 7, Start: 86400, End: 172800, Blocks: [][][]probe.Record{
			{{{T: 100, Addr: 1, Up: true}, {T: 90, Addr: 255}}, nil, {}},
			{{{T: math.MinInt64, Addr: 2}, {T: math.MaxInt64, Addr: 3, Up: true}, {T: 0}}},
			{},
		}},
		&Round{Seq: math.MaxInt64, Start: -1, End: math.MinInt64},
	)
	for _, r := range rounds {
		payload := encodeRoundFrame(nil, r)
		df, err := decodeStreamFrame(payload)
		if err != nil {
			t.Fatalf("round %d: %v", r.Seq, err)
		}
		if df.Tag != frameRound || !sameRound(df.Round, r) {
			t.Fatalf("round %d came back from its packed frame changed", r.Seq)
		}
		var legacy bytes.Buffer
		legacy.WriteByte(frameGobRound)
		if err := gob.NewEncoder(&legacy).Encode(r); err != nil {
			t.Fatal(err)
		}
		gf, err := decodeStreamFrame(legacy.Bytes())
		if err != nil {
			t.Fatalf("round %d, gob frame: %v", r.Seq, err)
		}
		if gf.Tag != frameGobRound || !sameRound(gf.Round, df.Round) {
			t.Fatalf("round %d decodes differently from its gob and its packed frame", r.Seq)
		}
	}
}

// TestPackedRoundRejectsCorrupt: every proper prefix of a packed round
// frame, trailing bytes and counts larger than the bytes left fail to
// decode; none panics.
func TestPackedRoundRejectsCorrupt(t *testing.T) {
	r := faultyRounds(t)[20]
	payload := encodeRoundFrame(nil, r)
	for n := 1; n < len(payload); n++ {
		if _, err := decodeStreamFrame(payload[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte round frame decodes", n, len(payload))
		}
	}
	if _, err := decodeStreamFrame(append(payload[:len(payload):len(payload)], 0)); err == nil {
		t.Fatal("a round frame with a trailing byte decodes")
	}
	// Seq, Start and End 0, one block of one stream, then a record count
	// of 2^40 with three bytes behind it.
	huge := []byte{frameRound, 0, 0, 0, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 2, 0, 0}
	if _, err := decodeStreamFrame(huge); err == nil {
		t.Fatal("a round frame counting 2^40 records in three bytes decodes")
	}
	// 2^40 blocks.
	huge = []byte{frameRound, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 1}
	if _, err := decodeStreamFrame(huge); err == nil {
		t.Fatal("a round frame counting 2^40 blocks decodes")
	}
}
