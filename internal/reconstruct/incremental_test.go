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

// TestSanitizerAppendReadsCleanInPlace: a clean stream on an empty tail
// comes back as itself, neither copied nor written, and a clean piece after
// it is appended as it is, with nothing tallied; a piece that steps back
// in time is sorted in.
func TestSanitizerAppendReadsCleanInPlace(t *testing.T) {
	stream := []probe.Record{{T: 1, Addr: 1}, {T: 1, Addr: 2, Up: true}, {T: 2, Addr: 1, Up: true}}
	orig := slices.Clone(stream)
	s := Sanitizer{Start: 0, End: 10}
	var rep SanitizeReport
	got := s.Append(nil, stream, &rep)
	if len(got) != len(stream) || &got[0] != &stream[0] || !slices.Equal(stream, orig) || rep != (SanitizeReport{}) {
		t.Fatalf("clean stream on an empty tail: got %v %+v, want the stream itself untallied", got, rep)
	}
	tail := s.Append(slices.Clone(got), []probe.Record{{T: 3, Addr: 2}}, &rep)
	if want := append(slices.Clone(orig), probe.Record{T: 3, Addr: 2}); !slices.Equal(tail, want) || rep != (SanitizeReport{}) {
		t.Fatalf("clean piece: got %v %+v, want %v untallied", tail, rep, want)
	}
	tail = s.Append(tail, []probe.Record{{T: 2, Addr: 3}}, &rep)
	if tail[3] != (probe.Record{T: 2, Addr: 3}) || rep.Reordered != 1 {
		t.Fatalf("late piece: got %v %+v, want it sorted in and counted", tail, rep)
	}
}
