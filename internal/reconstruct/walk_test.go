package reconstruct

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// The repair pass, the merge and the reconstruction were rewritten around
// Repairer.Tally, Cursor and Accumulator; the tests here hold each to its
// parent body (reference_test.go) over randomized streams, corrupt ones
// included.

// randomStreams draws k streams over a small address pool. Clean streams
// are time-ordered with one record per address and round; dirty ones also
// repeat addresses within a round and step backwards in time. Rounds are
// drawn from a coarse grid so that streams tie often.
func randomStreams(rng *rand.Rand, k int, dirty bool) [][]probe.Record {
	streams := make([][]probe.Record, k)
	for i := range streams {
		tm := int64(rng.Intn(4))
		for round := rng.Intn(40); round > 0; round-- {
			tm += int64(1 + rng.Intn(2))
			if dirty && rng.Intn(4) == 0 {
				tm -= int64(1 + rng.Intn(4)) // the same round again, or an earlier one
			}
			perm := rng.Perm(6)
			for _, a := range perm[:1+rng.Intn(5)] {
				streams[i] = append(streams[i], probe.Record{T: tm, Addr: uint8(a), Up: rng.Intn(5) < 2})
				if dirty && rng.Intn(6) == 0 {
					streams[i] = append(streams[i], probe.Record{T: tm, Addr: uint8(a), Up: rng.Intn(2) == 0})
				}
			}
		}
	}
	return streams
}

func cloneAll(streams [][]probe.Record) [][]probe.Record {
	out := make([][]probe.Record, len(streams))
	for i, s := range streams {
		out[i] = slices.Clone(s)
	}
	return out
}

// repairTally is Repairer.Tally from a fresh state over a stream of its
// own, with the repairs written into the records.
func repairTally(records []probe.Record, repair bool) (responsive, runs int) {
	var r Repairer
	var flips Flips
	responsive, runs, _ = r.Tally(records, repair, len(records), &flips)
	flips.Apply(records)
	return responsive, runs
}

func TestRepairTallyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		for _, s := range randomStreams(rng, 2, trial%2 == 1) {
			for _, repair := range []bool{false, true} {
				got, want := slices.Clone(s), slices.Clone(s)
				up, runs := repairTally(got, repair)
				if repair {
					referenceRepair1Loss(want)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d repair=%v: repaired stream differs from the reference", trial, repair)
				}
				wantRuns := 0
				for i := range want {
					if i == 0 || want[i].T != want[i-1].T {
						wantRuns++
					}
				}
				if up != responsive(want) || runs != wantRuns {
					t.Fatalf("trial %d repair=%v: tallied %d responsive in %d runs, stream holds %d in %d",
						trial, repair, up, runs, responsive(want), wantRuns)
				}
			}
		}
	}
}

// drain concatenates the cursor's runs, checking each is one timestamp.
func drain(t *testing.T, c *Cursor) []probe.Record {
	t.Helper()
	var out []probe.Record
	for run := c.Next(); run != nil; run = c.Next() {
		for _, r := range run {
			if r.T != run[0].T {
				t.Fatalf("run mixes timestamps %d and %d", run[0].T, r.T)
			}
		}
		out = append(out, run...)
	}
	if c.Next() != nil {
		t.Fatal("an exhausted cursor yielded a run")
	}
	return out
}

func TestCursorMatchesReferenceMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var c Cursor // reused across trials, as a worker's Scratch reuses it
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(11) // crosses the reference's 8-stream inline array
		dirty := trial%2 == 1
		streams := randomStreams(rng, k, dirty)
		merged := referenceMergeInto(nil, cloneAll(streams))
		if got := MergeInto(nil, cloneAll(streams)); !slices.Equal(got, merged) {
			t.Fatalf("trial %d: Merge differs from the reference", trial)
		}
		for _, resolve := range []bool{false, true} {
			want := slices.Clone(merged)
			if resolve {
				want = ResolveContested(want)
			}
			for _, dedup := range []bool{true, false} {
				if !dedup && dirty {
					continue // the scan may only be skipped on clean streams
				}
				c.Dedup, c.Resolve = dedup, resolve
				in := cloneAll(streams)
				c.Reset(in)
				got := drain(t, &c)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d dedup=%v resolve=%v: walk differs from MergeInto+ResolveContested (%d vs %d records)",
						trial, dedup, resolve, len(got), len(want))
				}
				total, up := 0, 0
				for _, s := range streams {
					total += len(s)
					up += responsive(s)
				}
				dropped, droppedUp := c.Dropped()
				if dropped != total-len(want) || droppedUp != up-responsive(want) {
					t.Fatalf("trial %d dedup=%v resolve=%v: Dropped() = %d, %d; the merged stream is short %d, %d",
						trial, dedup, resolve, dropped, droppedUp, total-len(want), up-responsive(want))
				}
				// A second walk over the same streams repeats the first.
				c.Reset(in)
				if again := drain(t, &c); !slices.Equal(again, want) {
					t.Fatalf("trial %d: second walk differs from the first", trial)
				}
			}
		}
	}
}

// TestCursorLoadRepairsAndTallies: the walk after Load is Sanitize (when
// asked), repair and merge, tallied in advance, and so is the walk after
// Rewind; the streams Load was given are left as they were.
func TestCursorLoadRepairsAndTallies(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var c Cursor // reused, so that a sanitized copy or a repair left over from one trial would show in the next
	for trial := 0; trial < 300; trial++ {
		dirty, repair := trial%2 == 1, trial%3 != 2
		var san *Sanitizer
		if trial%4 != 3 {
			san = &Sanitizer{Start: 2, End: 60} // clips the ends of most streams
		}
		streams := randomStreams(rng, 1+rng.Intn(5), dirty)
		orig := cloneAll(streams)
		want := cloneAll(streams)
		var wantRep SanitizeReport
		wantRuns := 0
		for i := range want {
			if san != nil {
				var rep SanitizeReport
				want[i], rep = Sanitize(want[i], san.Start, san.End)
				wantRep.Merge(rep)
			}
			if repair {
				referenceRepair1Loss(want[i])
			}
			for j := range want[i] {
				if j == 0 || want[i][j].T != want[i][j-1].T {
					wantRuns++
				}
			}
		}
		records, up, runs, rep := c.Load(streams, repair, san)
		c.Dedup = san == nil // as the kernel walks: sanitized streams hold no repeats
		wantRecords, wantUp := 0, 0
		for _, s := range want {
			wantRecords += len(s)
			wantUp += responsive(s)
		}
		if records != wantRecords || up != wantUp || runs != wantRuns || rep != wantRep {
			t.Fatalf("trial %d: Load tallied %d records, %d responsive, %d runs, %+v; want %d, %d, %d, %+v",
				trial, records, up, runs, rep, wantRecords, wantUp, wantRuns, wantRep)
		}
		merged := referenceMergeInto(nil, want)
		if got := drain(t, &c); !slices.Equal(got, merged) {
			t.Fatalf("trial %d repair=%v sanitize=%v: walk after Load differs from sanitize + repair + merge", trial, repair, san != nil)
		}
		c.Rewind()
		if got := drain(t, &c); !slices.Equal(got, merged) {
			t.Fatalf("trial %d: walk after Rewind differs from the first", trial)
		}
		for i := range streams {
			if !slices.Equal(streams[i], orig[i]) {
				t.Fatalf("trial %d: Load or the walk wrote stream %d", trial, i)
			}
		}
	}
}

func sameSeries(a, b *Series) bool {
	return slices.Equal(a.Times, b.Times) && slices.EqualFunc(a.Counts, b.Counts, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

func TestAccumulatorMatchesReferenceReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var acc Accumulator // reused across trials
	for trial := 0; trial < 400; trial++ {
		merged := referenceMergeInto(nil, randomStreams(rng, 1+rng.Intn(4), trial%3 == 2))
		var eb []int
		for a := 0; a < 6; a++ {
			if rng.Intn(3) > 0 {
				eb = append(eb, a, a) // repeats are one target
			}
		}
		if rng.Intn(6) == 0 {
			eb = append(eb, 300, -1) // targets no record can carry
		}
		want, wantErr := referenceReconstruct(merged, eb)
		got, err := Reconstruct(merged, eb)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("trial %d: err %v, reference %v", trial, err, wantErr)
		}
		if err != nil {
			if acc.Reset(eb, 0) == nil {
				t.Fatalf("trial %d: Reset accepted an empty target list", trial)
			}
			continue
		}
		if !sameSeries(got, want) {
			t.Fatalf("trial %d: Reconstruct differs from the reference (%d vs %d points)", trial, got.Len(), want.Len())
		}
		// The same stream in pieces of any size, through a reused accumulator
		// with too small a capacity hint.
		if err := acc.Reset(eb, rng.Intn(3)); err != nil {
			t.Fatal(err)
		}
		for rest := merged; len(rest) > 0; {
			n := 1 + rng.Intn(min(len(rest), 7))
			acc.Add(rest[:n])
			rest = rest[n:]
		}
		if pieces := acc.Finish(); !sameSeries(pieces, want) {
			t.Fatalf("trial %d: piecewise Add differs from the reference (%d vs %d points)", trial, pieces.Len(), want.Len())
		}
	}
}
