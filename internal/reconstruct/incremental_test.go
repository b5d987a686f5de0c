package reconstruct

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// The stages' carried state, as the incremental front half uses it: each
// taken a piece at a time gives what it gives the whole stream.

// TestAccumulatorFork: a Series finished on a fork is the one the stream
// so far gives, and stays so while the accumulator and later forks go on
// writing.
func TestAccumulatorFork(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		merged := referenceMergeInto(nil, randomStreams(rng, 1+rng.Intn(4), false))
		eb := []int{0, 1, 2, 3}
		var acc Accumulator
		if err := acc.Reset(eb, 0); err != nil {
			t.Fatal(err)
		}
		type kept struct {
			s    *Series
			want *Series
		}
		var forks []kept
		for at := 0; at < len(merged); {
			n := 1 + rng.Intn(min(len(merged)-at, 40))
			acc.Add(merged[at : at+n])
			at += n
			// A provisional tail walked onto a fork, as FrontState.Analyze does.
			tail := min(len(merged)-at, rng.Intn(30))
			f := acc.Fork()
			f.Add(merged[at : at+tail])
			s := f.Finish()
			want, err := Reconstruct(merged[:at+tail], eb)
			if err != nil {
				t.Fatal(err)
			}
			forks = append(forks, kept{s, want})
		}
		for i, k := range forks {
			if !sameSeries(k.s, k.want) {
				t.Fatalf("trial %d: fork %d of %d differs from the stream so far (%d vs %d points)", trial, i, len(forks), k.s.Len(), k.want.Len())
			}
		}
	}
}

// TestSanitizerAppend: a stream sanitized a piece at a time, each piece
// appended to the tail that holds every record from its earliest timestamp
// on, is the stream Sanitize gives, with the same report.
func TestSanitizerAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 300; trial++ {
		stream := randomStreams(rng, 1, true)[0]
		want, wantRep := Sanitize(slices.Clone(stream), 0, 1<<40)
		s := Sanitizer{Start: 0, End: 1 << 40}
		var rep SanitizeReport
		// after[i] is the earliest timestamp from position i on.
		after := make([]int64, len(stream)+1)
		after[len(stream)] = 1 << 62
		for i := len(stream) - 1; i >= 0; i-- {
			after[i] = min(after[i+1], stream[i].T)
		}
		var done, tail []probe.Record
		for at := 0; at < len(stream); {
			n := 1 + rng.Intn(min(len(stream)-at, 50))
			// What precedes every record still to come is final.
			k := 0
			for k < len(tail) && tail[k].T < after[at] {
				k++
			}
			done = append(done, tail[:k]...)
			tail = s.Append(slices.Clone(tail[k:]), stream[at:at+n], &rep)
			at += n
		}
		got := append(done, tail...)
		if !slices.Equal(got, want) || rep != wantRep {
			t.Fatalf("trial %d: piecewise %d records %+v, whole stream %d records %+v", trial, len(got), rep, len(want), wantRep)
		}
	}
}

// TestRepairerCarriesState: a stream repaired a piece at a time through one
// Repairer, with each piece's records held until no later record can
// repair them, is the stream repaired whole.
func TestRepairerCarriesState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		stream := referenceMergeInto(nil, randomStreams(rng, 1, false))
		want := slices.Clone(stream)
		repairTally(want, true)
		var rp Repairer
		var got, held []probe.Record
		for rest := stream; len(rest) > 0 || len(held) > 0; {
			n := min(len(rest), rng.Intn(40))
			raw := append(slices.Clone(held), rest[:n]...)
			rest = rest[n:]
			work := slices.Clone(raw)
			try := rp
			var flips Flips
			_, _, hold := try.Tally(work, true, len(work), &flips)
			if !slices.Equal(work, raw) {
				t.Fatalf("trial %d: Tally wrote the records it tallied", trial)
			}
			flips.Apply(work)
			if len(rest) == 0 {
				hold = len(work)
			}
			got = append(got, work[:hold]...)
			rp.Tally(raw[:hold], true, hold, &flips)
			held = raw[hold:]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: carried repair differs from the whole stream's", trial)
		}
	}
}
