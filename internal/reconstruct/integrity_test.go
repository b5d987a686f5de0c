package reconstruct

import (
	"testing"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// TestMergeIntoDedupsWithinStreamRun is the duplicate-flood regression:
// a corrupt stream re-emitting an address within one equal-timestamp run
// must collapse to its first observation, so the flood cannot re-enter
// Reconstruct's accumulator once per copy.
func TestMergeIntoDedupsWithinStreamRun(t *testing.T) {
	flooded := []probe.Record{
		{T: 100, Addr: 1, Up: true},
		{T: 100, Addr: 2, Up: false},
		{T: 100, Addr: 1, Up: false}, // exact-addr repeat, conflicting state
		{T: 100, Addr: 1, Up: true},
		{T: 200, Addr: 1, Up: true}, // later run: not a duplicate
	}
	got := MergeInto(nil, [][]probe.Record{flooded})
	want := []probe.Record{
		{T: 100, Addr: 1, Up: true}, // first observation wins
		{T: 100, Addr: 2, Up: false},
		{T: 200, Addr: 1, Up: true},
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestMergeIntoKeepsCrossObserverRepeats pins the division of labor:
// MergeInto collapses repeats only within one stream's run — the same
// (time, addr) from different observers survives for ResolveContested.
func TestMergeIntoKeepsCrossObserverRepeats(t *testing.T) {
	a := []probe.Record{{T: 100, Addr: 1, Up: true}}
	b := []probe.Record{{T: 100, Addr: 1, Up: false}}
	got := MergeInto(nil, [][]probe.Record{a, b})
	if len(got) != 2 {
		t.Fatalf("merged %d records, want 2 (cross-observer repeat kept): %+v", len(got), got)
	}
}

func TestResolveContestedMajorityWins(t *testing.T) {
	merged := []probe.Record{
		{T: 100, Addr: 1, Up: true},
		{T: 100, Addr: 1, Up: false},
		{T: 100, Addr: 1, Up: false},
	}
	got := ResolveContested(merged)
	if len(got) != 1 {
		t.Fatalf("resolved to %d records, want 1: %+v", len(got), got)
	}
	if got[0].Up {
		t.Errorf("2-of-3 down majority lost: %+v", got[0])
	}
}

func TestResolveContestedTieKeepsFirst(t *testing.T) {
	merged := []probe.Record{
		{T: 100, Addr: 1, Up: true},
		{T: 100, Addr: 1, Up: false},
	}
	got := ResolveContested(merged)
	if len(got) != 1 || !got[0].Up {
		t.Errorf("tie should keep the first report's state: %+v", got)
	}
}

func TestResolveContestedUncontestedPassThrough(t *testing.T) {
	// Distinct addresses within a shared timestamp and distinct
	// timestamps are both uncontested; the stream passes bit-identical.
	merged := []probe.Record{
		{T: 100, Addr: 1, Up: true},
		{T: 100, Addr: 2, Up: false},
		{T: 200, Addr: 1, Up: false},
	}
	want := append([]probe.Record(nil), merged...)
	got := ResolveContested(merged)
	if len(got) != len(want) {
		t.Fatalf("clean stream changed length: %d -> %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestResolveContestedMixedRun(t *testing.T) {
	// One contested pair inside a run must not disturb its uncontested
	// neighbors, and the pair collapses at its first occurrence.
	merged := []probe.Record{
		{T: 100, Addr: 5, Up: true},
		{T: 100, Addr: 1, Up: false},
		{T: 100, Addr: 5, Up: false},
		{T: 100, Addr: 5, Up: false},
		{T: 100, Addr: 9, Up: true},
	}
	got := ResolveContested(merged)
	want := []probe.Record{
		{T: 100, Addr: 5, Up: false}, // majority down, first position
		{T: 100, Addr: 1, Up: false},
		{T: 100, Addr: 9, Up: true},
	}
	if len(got) != len(want) {
		t.Fatalf("resolved to %d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSanitizeReportMerge(t *testing.T) {
	var acc SanitizeReport
	acc.Merge(SanitizeReport{OutOfWindow: 1, Duplicates: 2, Conflicts: 3, Reordered: 4})
	acc.Merge(SanitizeReport{OutOfWindow: 10, Duplicates: 20, Conflicts: 30, Reordered: 40})
	want := SanitizeReport{OutOfWindow: 11, Duplicates: 22, Conflicts: 33, Reordered: 44}
	if acc != want {
		t.Errorf("accumulated %+v, want %+v", acc, want)
	}
	if acc.Total() != 11+22+33 {
		t.Errorf("Total() = %d, want %d (Reordered drops nothing)", acc.Total(), 66)
	}
}
