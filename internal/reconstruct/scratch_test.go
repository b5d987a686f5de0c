package reconstruct

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// TestMergeMatchesStableSort pits the min-scan merge against a stable
// sort by (T, stream index) over randomized stream shapes — including many
// ties and more streams than the inline head array holds.
func TestMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(12) // crosses the 8-stream inline-array boundary
		streams := make([][]probe.Record, k)
		type tagged struct {
			rec    probe.Record
			stream int
		}
		var all []tagged
		for i := range streams {
			m := rng.Intn(30)
			tt := int64(rng.Intn(5))
			for j := 0; j < m; j++ {
				tt += int64(rng.Intn(3)) // frequent cross-stream ties
				rec := probe.Record{T: tt, Addr: uint8((i*31 + j) % 256)}
				streams[i] = append(streams[i], rec)
				all = append(all, tagged{rec, i})
			}
		}
		sort.SliceStable(all, func(a, b int) bool {
			if all[a].rec.T != all[b].rec.T {
				return all[a].rec.T < all[b].rec.T
			}
			return all[a].stream < all[b].stream
		})
		got := Merge(streams)
		if len(got) != len(all) {
			t.Fatalf("trial %d: merged %d records, want %d", trial, len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i].rec {
				t.Fatalf("trial %d: record %d = %+v, want %+v", trial, i, got[i], all[i].rec)
			}
		}
	}
}

// TestResampleIntoMatchesResample checks the scratch-buffer resample
// against the allocating one bit for bit, across reused scratches of
// varying bin counts.
func TestResampleIntoMatchesResample(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sc ResampleScratch
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		s := &Series{}
		tt := int64(rng.Intn(100))
		for i := 0; i < n; i++ {
			tt += int64(1 + rng.Intn(4000))
			s.Times = append(s.Times, tt)
			s.Counts = append(s.Counts, float64(rng.Intn(40)))
		}
		start := s.Times[0] - int64(rng.Intn(5000))
		end := s.Times[len(s.Times)-1] + int64(rng.Intn(5000))
		step := int64(600 * (1 + rng.Intn(6)))
		want := s.Resample(start, end, step)
		got := s.ResampleInto(&sc, start, end, step)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("trial %d: len %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d bin %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
	// Empty-window and no-point cases must agree too.
	empty := &Series{}
	if empty.ResampleInto(&sc, 0, 100, 10) != nil {
		t.Error("empty series should resample to nil")
	}
	one := &Series{Times: []int64{1000}, Counts: []float64{3}}
	if one.ResampleInto(&sc, 2000, 3000, 100) != nil {
		t.Error("series with no points in window should resample to nil")
	}
}

// TestResampleIntoSteadyStateAllocs checks that repeated same-size
// resamples on a warm scratch allocate nothing.
func TestResampleIntoSteadyStateAllocs(t *testing.T) {
	s := &Series{}
	for i := 0; i < 500; i++ {
		s.Times = append(s.Times, int64(i*660))
		s.Counts = append(s.Counts, float64(i%30))
	}
	var sc ResampleScratch
	start, end, step := int64(0), int64(500*660), int64(3600)
	s.ResampleInto(&sc, start, end, step)
	if n := testing.AllocsPerRun(50, func() { s.ResampleInto(&sc, start, end, step) }); n > 0 {
		t.Errorf("warm ResampleInto allocates %.0f times per call", n)
	}
}
