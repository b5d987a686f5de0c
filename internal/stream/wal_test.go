package stream

// The round journal's codec and compaction trigger: packed round frames
// come back bit-identical from a faulty feed, corrupt ones fail without
// panicking or allocating past their size, and the journal is compacted
// on the bytes appended since its last base.

import (
	"bytes"
	"context"
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

// TestRoundCompactionFollowsAppendedBytes: the round journal is compacted
// once CompactBytes of frames have been appended since its last base,
// however large the base has grown, and a reopen counts the frames
// already behind the base. Writing the golden fixture's world, in lives
// of five rounds that each append less than CompactBytes, compacts at
// most appended/CompactBytes times.
func TestRoundCompactionFollowsAppendedBytes(t *testing.T) {
	world, f, cfg := goldenWAL(t)
	cfg.CompactBytes = 16 << 10
	dir := t.TempDir()
	ctx := context.Background()
	// want replays the rule over the frames appended, across the lives.
	const life = 5
	var appended, since, compactions, want int64
	for from := int64(0); from < f.Rounds(); from += life {
		to := min(from+life, f.Rounds())
		d, err := Open(dir, world, f.Observers(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		for seq := d.NextIngestSeq(); seq < to; seq++ {
			r, err := f.Round(seq)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Ingest(ctx, r); err != nil {
				t.Fatal(err)
			}
			n := frameBytes(encodeRoundFrame(nil, r))
			appended += n
			if since += n; since > cfg.CompactBytes {
				want, since = want+1, 0
			}
			if err := d.Drain(ctx); err != nil {
				t.Fatal(err)
			}
		}
		d.mu.Lock()
		compactions += d.rounds.Usage().Compactions
		d.mu.Unlock()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if compactions == 0 {
		t.Fatalf("%d bytes of rounds appended under CompactBytes %d and no compaction", appended, cfg.CompactBytes)
	}
	if bound := appended / cfg.CompactBytes; compactions > bound {
		t.Fatalf("%d compactions for %d bytes of rounds appended, more than one per CompactBytes (%d)", compactions, appended, bound)
	}
	if compactions != want {
		t.Fatalf("%d compactions, want the %d of one each time CompactBytes were appended since the last", compactions, want)
	}
}
