package experiments

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
)

func rec(t int64, addr int, up bool) probe.Record {
	return probe.Record{T: t, Addr: uint8(addr), Up: up}
}

// TestScanTimesMatchesReference holds the cursor walk to the parent's scan
// over the materialised merge, on randomized streams: clean ones
// (time-ordered, one record per address and round) and dirty ones that
// repeat addresses within a round and step backwards in time. Rounds fall
// on a coarse grid, so streams tie often, and the target lists include
// duplicates, addresses no record carries and addresses past 255.
func TestScanTimesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	completed := 0
	for trial := 0; trial < 600; trial++ {
		dirty := trial%2 == 1
		streams := make([][]probe.Record, 1+rng.Intn(6))
		for i := range streams {
			tm := int64(rng.Intn(4))
			for round := rng.Intn(60); round > 0; round-- {
				tm += int64(1 + rng.Intn(3))
				if dirty && rng.Intn(4) == 0 {
					tm -= int64(1 + rng.Intn(4))
				}
				for _, a := range rng.Perm(8)[:1+rng.Intn(4)] {
					streams[i] = append(streams[i], rec(tm, a, rng.Intn(2) == 0))
					if dirty && rng.Intn(5) == 0 {
						streams[i] = append(streams[i], rec(tm, a, rng.Intn(2) == 0))
					}
				}
			}
		}
		var eb []int
		for n := rng.Intn(7); n > 0; n-- {
			eb = append(eb, rng.Intn(9)) // 8 is never probed
		}
		if rng.Intn(20) == 0 {
			eb = append(eb, 300)
		}
		want := referenceScanTimes(reconstruct.MergeInto(nil, streams), eb)
		got := ScanTimes(streams, eb)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("trial %d (dirty=%v, eb=%v): ScanTimes = %v, reference %v", trial, dirty, eb, got, want)
		}
		if len(got) > 0 {
			completed++
		}
	}
	if completed < 100 {
		t.Fatalf("only %d trials completed a scan; the comparison is too weak", completed)
	}
}

func TestScanTimes(t *testing.T) {
	eb := []int{1, 2}
	recs := []probe.Record{
		rec(0, 1, true),
		rec(10, 2, true), // first full scan: 10s
		rec(20, 1, true),
		rec(25, 2, false), // second: 25-10=15s
	}
	got := ScanTimes([][]probe.Record{recs}, eb)
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("ScanTimes = %v", got)
	}
	if ScanTimes(nil, eb) != nil {
		t.Fatal("no records should yield nil")
	}
	if ScanTimes([][]probe.Record{recs}, nil) != nil {
		t.Fatal("empty eb should yield nil")
	}
}

// TestMedianScanNeverCompleted: a block whose streams never cover E(b)
// counts as the whole window, the slowest possible scan, and never as the
// fastest.
func TestMedianScanNeverCompleted(t *testing.T) {
	const window = 14 * netsim.SecondsPerDay
	var a, b []probe.Record
	for r := int64(0); r < 100; r++ {
		a = append(a, rec(r*netsim.RoundSeconds, 1, true))
		b = append(b, rec(r*netsim.RoundSeconds+7, 2, r%2 == 0))
	}
	for _, eb := range [][]int{{1, 2, 3}, {1, 300}, {5}} {
		scans := ScanTimes([][]probe.Record{a, b}, eb)
		if scans != nil {
			t.Fatalf("eb %v: ScanTimes = %v, want nil: address 3, 5 or 300 is never probed", eb, scans)
		}
		if got := medianScan(scans, window); got != window {
			t.Errorf("eb %v: median scan of a block never covered = %d, want the window %d", eb, got, window)
		}
	}
	if got := medianScan([]int64{40, 10, 30, 20}, window); got != 30 {
		t.Errorf("median of an even count = %d, want the upper middle 30", got)
	}
}

func TestMeanReplyRate(t *testing.T) {
	recs := []probe.Record{rec(0, 1, true), rec(1, 1, false), rec(2, 1, true), rec(3, 1, true)}
	if got := meanReplyRate([][]probe.Record{recs}, false); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("rate = %g", got)
	}
	if meanReplyRate(nil, false) != 0 {
		t.Fatal("empty rate should be 0")
	}
	if got := meanReplyRate([][]probe.Record{recs}, true); got != 1 || !recs[1].Up {
		t.Fatalf("rate with 1-loss repair = %g, want the 101 repaired to 1", got)
	}
}

// TestMoreObserversScanFaster verifies §3.1: combining observers shortens
// full-block-scan time.
func TestMoreObserversScanFaster(t *testing.T) {
	blk, err := netsim.NewBlock(101, 556, netsim.Spec{AlwaysOn: 200})
	if err != nil {
		t.Fatal(err)
	}
	jan6 := netsim.Date(2020, time.January, 6)
	median := func(n int) int64 {
		eng := &probe.Engine{Observers: probe.StandardObservers(n), QuarterSeed: 4}
		perObs, err := eng.Collect(blk, jan6, jan6+4*netsim.SecondsPerDay)
		if err != nil {
			t.Fatal(err)
		}
		times := ScanTimes(perObs, blk.EverActive())
		if len(times) == 0 {
			t.Fatal("block never fully scanned")
		}
		return medianScan(times, 0)
	}
	one, four := median(1), median(4)
	if four >= one {
		t.Fatalf("4-observer median scan %ds not faster than 1-observer %ds", four, one)
	}
}
