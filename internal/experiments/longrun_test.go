package experiments

import (
	"strings"
	"testing"
)

// TestLongrun exercises the storage-governance acceptance contract at
// reduced scale. Longrun itself errors on any breach (resume
// divergence, budget overrun, a shed under a sufficient budget,
// snapshot litter, an over-budget publish written, ENOSPC not shed
// gracefully), so a nil error plus the verdict fields is the whole
// acceptance check.
func TestLongrun(t *testing.T) {
	if testing.Short() {
		t.Skip("streams three quarters twice each plus a fault-injected replay")
	}
	res, err := Longrun(Options{Blocks: 16})
	if err != nil {
		t.Fatalf("storage governance broken: %v", err)
	}
	if !res.Identical || res.Incarnations < 2*res.Quarters {
		t.Fatalf("kill-and-resume under governance was not exercised:\n%s", res)
	}
	if res.Rotations == 0 {
		t.Fatalf("WAL governance never fired:\n%s", res)
	}
	if res.PeakJournalBytes > res.DiskBudget || res.LitterFiles != 0 {
		t.Fatalf("disk footprint not governed:\n%s", res)
	}
	if !res.PublishRefused || !res.PressureShed || !res.ResumedAfterPressure {
		t.Fatalf("degradation contracts not exercised:\n%s", res)
	}
	if s := res.String(); !strings.Contains(s, "OK") || strings.Contains(s, "VIOLATED") {
		t.Fatalf("report does not state a clean verdict:\n%s", s)
	}
}
