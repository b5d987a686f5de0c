package core

import (
	"runtime"
	"testing"

	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
)

// syntheticResult builds a result of n analyzed blocks whose series hold
// points samples each; block b's samples differ from every other block's.
func syntheticResult(n, points int) *WorldResult {
	r := &WorldResult{Blocks: make([]BlockOutcome, n), Report: &RunReport{AnalyzedBlocks: n}}
	for b := range r.Blocks {
		s := &reconstruct.Series{Times: make([]int64, points), Counts: make([]float64, points)}
		for i := range s.Times {
			s.Times[i] = int64(i) * 660
			s.Counts[i] = float64((i + b) % 97)
		}
		r.Blocks[b] = BlockOutcome{ID: netsim.BlockID(b + 1), Analysis: &BlockAnalysis{Series: s}}
	}
	return r
}

// TestFingerprintBuffersOneBlock: the digest's working memory must be one
// block's encoding, not the world's. Each block's own encoding has to be
// allocated once, so a fingerprint allocates the payload once over; when
// all outcomes went into a single gob message the encoder's buffer held
// the whole world as well and got there by doubling — three to four times
// the payload, and a world larger than half of memory could not be
// fingerprinted at all.
func TestFingerprintBuffersOneBlock(t *testing.T) {
	const blocks, points = 64, 8192
	r := syntheticResult(blocks, points)
	payload := uint64(blocks * points * 16)
	if _, err := r.Fingerprint(); err != nil { // gob's type registration allocates once
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := r.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*payload {
		t.Errorf("fingerprinting %d MB of outcomes allocated %d MB, want at most %d", payload>>20, got>>20, 2*payload>>20)
	}
}

// TestFingerprintSeesEveryBlock: per-block framing must still bind the
// number of blocks, their order and their contents.
func TestFingerprintSeesEveryBlock(t *testing.T) {
	fp := func(r *WorldResult) string {
		t.Helper()
		s, err := r.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := fp(syntheticResult(6, 64))
	if again := fp(syntheticResult(6, 64)); again != base {
		t.Fatalf("equal results fingerprint differently: %s vs %s", base, again)
	}
	swapped := syntheticResult(6, 64)
	swapped.Blocks[1], swapped.Blocks[4] = swapped.Blocks[4], swapped.Blocks[1]
	truncated := syntheticResult(6, 64)
	truncated.Blocks = truncated.Blocks[:5]
	edited := syntheticResult(6, 64)
	edited.Blocks[5].Analysis.Series.Counts[63]++
	unanalyzed := syntheticResult(6, 64)
	unanalyzed.Blocks[0].Analysis = nil
	for name, r := range map[string]*WorldResult{
		"two blocks swapped": swapped, "last block dropped": truncated,
		"one sample changed": edited, "one analysis missing": unanalyzed,
	} {
		if fp(r) == base {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
}
