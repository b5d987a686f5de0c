package stream

import (
	"testing"

	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/netsim"
)

// TestTwoNearbyChangesConfirm: one refresh after another detects two
// same-direction changes a day apart, within the matching slop of each
// other. Each keeps a candidate and a presence streak of its own, so both
// are confirmed and emitted before the final refresh — not one candidate
// matched twice per refresh, whose streak restarted at every refresh.
func TestTwoNearbyChangesConfirm(t *testing.T) {
	cfg := testConfig().withDefaults()
	det := testDetector(t, cfg, testWorld(t, 1, 4242), 3, 1)
	bs := det.blocks[0]
	day := int64(netsim.SecondsPerDay)
	point := cfg.Core.AnalysisStart + 30*day
	changes := []core.Change{
		{Dir: changepoint.Down, Start: point - day, Alarm: point, End: point + day, Point: point},
		{Dir: changepoint.Down, Start: point, Alarm: point + day, End: point + 2*day, Point: point + day},
	}
	frontier := cfg.Core.AnalysisEnd // past every stability horizon
	var events []Event
	for r := 0; r < cfg.ConfirmRefreshes; r++ {
		seq := int64(40 + r)
		det.refreshes++
		det.trackCandidates(bs, &core.BlockAnalysis{Changes: changes}, seq)
		events = append(events, det.emit(0, bs, frontier, seq, false)...)
	}
	if len(bs.cands) != 2 {
		t.Fatalf("%d candidates, want one per change", len(bs.cands))
	}
	for i, cand := range bs.cands {
		if cand.SeenStreak != int64(cfg.ConfirmRefreshes) || cand.FirstSeenSeq != 40 || cand.Change != changes[i] {
			t.Errorf("candidate %d: streak %d from round %d, change at %d; want streak %d from round 40, change at %d",
				i, cand.SeenStreak, cand.FirstSeenSeq, cand.Change.Point, cfg.ConfirmRefreshes, changes[i].Point)
		}
	}
	if len(events) != 2 {
		t.Fatalf("%d events emitted before the final refresh, want both changes", len(events))
	}
}
