package integrity

import (
	"testing"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// honestStream fabricates a plausible observer stream: one in-window
// record per (hour, addr) over E(b) = {0..3}, everything up.
func honestStream(n int, phase int64) []probe.Record {
	out := make([]probe.Record, 0, n)
	t := phase
	for len(out) < n {
		for a := uint8(0); a < 4 && len(out) < n; a++ {
			out = append(out, probe.Record{T: t, Addr: a, Up: true})
		}
		t += 3600
	}
	return out
}

var eb = []int{0, 1, 2, 3}

const (
	winStart = int64(0)
	winEnd   = int64(100 * 86400)
)

func check(t *testing.T, perObs [][]probe.Record) []Verdict {
	t.Helper()
	return Check(Config{}, perObs, eb, winStart, winEnd)
}

func gatedSet(vs []Verdict) []int {
	var out []int
	for _, v := range vs {
		if v.Gated {
			out = append(out, v.Observer)
		}
	}
	return out
}

func TestCheckHonestStreamsClean(t *testing.T) {
	perObs := [][]probe.Record{
		honestStream(64, 0), honestStream(64, 110), honestStream(64, 220), honestStream(64, 330),
	}
	vs := check(t, perObs)
	for _, v := range vs {
		if v.Suspect || v.Gated || v.Reason != "" {
			t.Errorf("honest observer %d judged %+v", v.Observer, v)
		}
		if s := v.AgreementScore(); s != 1 {
			t.Errorf("honest observer %d agreement %.2f, want 1", v.Observer, s)
		}
	}
}

func TestCheckOutOfWindowGate(t *testing.T) {
	bad := honestStream(64, 0)
	for i := range bad[:8] { // 12.5% > 5% ceiling
		bad[i].T = winEnd + int64(i+1)*3600
	}
	perObs := [][]probe.Record{honestStream(64, 110), honestStream(64, 220), honestStream(64, 330), bad}
	vs := check(t, perObs)
	if got := gatedSet(vs); len(got) != 1 || got[0] != 3 {
		t.Fatalf("gated %v, want [3]", got)
	}
	if vs[3].Reason != "out-of-window" {
		t.Errorf("reason %q, want out-of-window", vs[3].Reason)
	}
}

func TestCheckNonMemberGate(t *testing.T) {
	bad := honestStream(64, 0)
	for i := range bad[:4] { // 6.25% > 2% ceiling
		bad[i].Addr = 200 // outside E(b)
	}
	perObs := [][]probe.Record{honestStream(64, 110), honestStream(64, 220), honestStream(64, 330), bad}
	vs := check(t, perObs)
	if got := gatedSet(vs); len(got) != 1 || got[0] != 3 {
		t.Fatalf("gated %v, want [3]", got)
	}
	if vs[3].Reason != "non-member" {
		t.Errorf("reason %q, want non-member", vs[3].Reason)
	}
}

func TestCheckDuplicateGate(t *testing.T) {
	bad := honestStream(56, 0)
	bad = append(bad, bad[:8]...) // 12.5% exact repeats > 5% ceiling
	perObs := [][]probe.Record{honestStream(64, 110), honestStream(64, 220), honestStream(64, 330), bad}
	vs := check(t, perObs)
	if got := gatedSet(vs); len(got) != 1 || got[0] != 3 {
		t.Fatalf("gated %v, want [3]", got)
	}
	if vs[3].Reason != "duplicates" {
		t.Errorf("reason %q, want duplicates", vs[3].Reason)
	}
}

func TestCheckReplyRateGate(t *testing.T) {
	bad := honestStream(64, 0)
	for i := range bad { // all positives rate-limited away
		bad[i].Up = false
	}
	perObs := [][]probe.Record{honestStream(64, 110), honestStream(64, 220), honestStream(64, 330), bad}
	vs := check(t, perObs)
	if got := gatedSet(vs); len(got) != 1 || got[0] != 3 {
		t.Fatalf("gated %v, want [3]", got)
	}
	if vs[3].Reason != "reply-rate" {
		t.Errorf("reason %q, want reply-rate", vs[3].Reason)
	}
	if vs[3].PeerRate != 1 {
		t.Errorf("peer median %.2f, want 1", vs[3].PeerRate)
	}
}

func TestCheckReplyRateNeedsThreeJudged(t *testing.T) {
	// With only two judged streams there is no peer median: a silent
	// stream must not be gated on rate alone.
	bad := honestStream(64, 0)
	for i := range bad {
		bad[i].Up = false
	}
	perObs := [][]probe.Record{honestStream(64, 110), bad}
	vs := check(t, perObs)
	if vs[1].Reason == "reply-rate" {
		t.Errorf("reply-rate gate fired with two judged streams: %+v", vs[1])
	}
}

func TestCheckDisagreementGate(t *testing.T) {
	// The liar reports a plausible rate and clean formats but inverts
	// every vote — only the cross-observer comparison can catch it. The
	// honest world has addresses 0–1 up and 2–3 down, so every stream's
	// reply rate is 0.5 and the rate gate stays quiet.
	split := func(phase int64, invert bool) []probe.Record {
		s := honestStream(64, phase)
		for i := range s {
			s[i].Up = (s[i].Addr < 2) != invert
		}
		return s
	}
	bad := split(330, true)
	perObs := [][]probe.Record{split(0, false), split(110, false), split(220, false), bad}
	vs := check(t, perObs)
	if got := gatedSet(vs); len(got) != 1 || got[0] != 3 {
		t.Fatalf("gated %v, want [3]: %+v", got, vs[3])
	}
	if vs[3].Reason != "disagreement" {
		t.Errorf("reason %q, want disagreement", vs[3].Reason)
	}
	if vs[3].Comparisons == 0 || vs[3].AgreementScore() >= 0.5 {
		t.Errorf("agreement %d/%d, want < 0.5", vs[3].Matches, vs[3].Comparisons)
	}
}

func TestCheckSuspectsExcludedFromMajorities(t *testing.T) {
	// The Byzantine frame-up regression: a suspect stream's flood of
	// false votes must not count in the majorities that judge honest
	// peers. The attacker votes everything down; if its votes counted,
	// every honest observer would face a 1-vs-1 tie or worse on buckets
	// only one honest peer covered.
	bad := honestStream(64, 330)
	for i := range bad {
		bad[i].Up = false
	}
	perObs := [][]probe.Record{honestStream(64, 0), honestStream(64, 110), honestStream(64, 220), bad}
	vs := check(t, perObs)
	for oi := 0; oi < 3; oi++ {
		if vs[oi].Suspect {
			t.Errorf("honest observer %d framed: %+v", oi, vs[oi])
		}
		if s := vs[oi].AgreementScore(); s != 1 {
			t.Errorf("honest observer %d agreement %.2f, want 1", oi, s)
		}
	}
	if !vs[3].Gated {
		t.Error("attacker not gated")
	}
}

func TestCheckNeverGatesAll(t *testing.T) {
	// Every judged stream trips a gate: with no honest reference the
	// firewall must keep them all.
	mk := func(phase int64) []probe.Record {
		s := honestStream(64, phase)
		for i := range s[:8] {
			s[i].T = winEnd + int64(i+1)*3600
		}
		return s
	}
	perObs := [][]probe.Record{mk(0), mk(110), mk(220)}
	vs := check(t, perObs)
	for _, v := range vs {
		if !v.Suspect {
			t.Errorf("observer %d not suspect: %+v", v.Observer, v)
		}
		if v.Gated {
			t.Errorf("observer %d gated with no honest reference", v.Observer)
		}
	}
}

func TestCheckMinRecordsSkip(t *testing.T) {
	tiny := honestStream(8, 0)
	for i := range tiny { // would trip every gate if judged
		tiny[i].T = winEnd + 1
	}
	perObs := [][]probe.Record{honestStream(64, 110), honestStream(64, 220), tiny}
	vs := check(t, perObs)
	if vs[2].Suspect || vs[2].Gated || vs[2].Reason != "" {
		t.Errorf("sub-minimum stream judged: %+v", vs[2])
	}
	if vs[2].Records != 8 {
		t.Errorf("Records = %d, want 8", vs[2].Records)
	}
}

func TestCheckPure(t *testing.T) {
	bad := honestStream(64, 0)
	for i := range bad[:8] {
		bad[i].T = winEnd + 1
	}
	perObs := [][]probe.Record{honestStream(64, 110), honestStream(64, 220), honestStream(64, 330), bad}
	snapshot := make([][]probe.Record, len(perObs))
	for i, s := range perObs {
		snapshot[i] = append([]probe.Record(nil), s...)
	}
	check(t, perObs)
	for i, s := range perObs {
		if len(s) != len(snapshot[i]) {
			t.Fatalf("stream %d length changed", i)
		}
		for j := range s {
			if s[j] != snapshot[i][j] {
				t.Fatalf("stream %d record %d mutated: %+v -> %+v", i, j, snapshot[i][j], s[j])
			}
		}
	}
}
