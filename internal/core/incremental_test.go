package core

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// The incremental front half against the batch one: whatever pieces a
// block's streams arrive in, FrontState gives after every piece what
// frontHalf gives over everything so far.

// piecewise feeds rounds to a FrontState and checks it after every
// every-th one and the last against frontHalf over the concatenation so
// far, and with analyze the whole analysis at the end. It returns how many
// Advances were refused and rebuilt.
func piecewise(t *testing.T, cfg Resolved, eb []int, rounds [][][]probe.Record, every int, analyze bool) (rebuilds int) {
	t.Helper()
	st := cfg.NewFrontState(eb)
	sc, ref := NewScratch(), NewScratch()
	var history [][]probe.Record
	for ri, round := range rounds {
		for len(history) < len(round) {
			history = append(history, nil)
		}
		for o, recs := range round {
			history[o] = append(history[o], recs...)
		}
		if !st.Advance(round) {
			rebuilds++
			st.Reset()
			if !st.Advance(history) {
				t.Fatalf("round %d: an advance from empty was refused", ri)
			}
		}
		if len(eb) == 0 || ((ri+1)%every != 0 && ri+1 < len(rounds)) {
			continue
		}
		var got, want front
		var err error
		want.series, want.outages, want.san, err = cfg.frontHalf(history, eb, ref)
		if err != nil {
			t.Fatalf("round %d: batch: %v", ri, err)
		}
		got.series, got.outages, got.san = st.front(sc)
		if err := sameFront(got, want); err != nil {
			t.Fatalf("round %d of %d: %v", ri+1, len(rounds), err)
		}
	}
	if analyze && len(eb) > 0 {
		got, err := st.Analyze(sc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cfg.analyzeCollected(history, eb, ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAnalysis(got, want); err != nil {
			t.Fatalf("whole analysis: %v", err)
		}
	}
	return rebuilds
}

// dailyRounds cuts every stream where the daemon's feeder does: at the
// first record of each day, found by binary search, which on an unsorted
// stream puts records outside their round's day.
func dailyRounds(perObs [][]probe.Record, start int64, days int) [][][]probe.Record {
	rounds := make([][][]probe.Record, days)
	for d := range rounds {
		rounds[d] = make([][]probe.Record, len(perObs))
	}
	for o, s := range perObs {
		cut := func(d int) int {
			if d == days {
				return len(s)
			}
			t := start + int64(d)*netsim.SecondsPerDay
			return sort.Search(len(s), func(i int) bool { return s[i].T >= t })
		}
		for d := range rounds {
			lo, hi := cut(d), cut(d+1)
			if hi < lo {
				hi = lo
			}
			rounds[d][o] = s[lo:hi]
		}
	}
	return rounds
}

// TestFrontStateMatchesBatch runs every collected block shape, raw and
// under every Byzantine attack, through the eight Repair × SanitizeRecords
// × Integrity configurations, one day at a time. The raw streams are
// compared after every day, the attacked ones after every fifth.
func TestFrontStateMatchesBatch(t *testing.T) {
	base := DefaultConfig(q1Start, q1Start+frontDays*netsim.SecondsPerDay)
	var rebuilds atomic.Int64
	t.Cleanup(func() { t.Logf("%d refused advances rebuilt", rebuilds.Load()) })
	for _, fc := range frontCases(t) {
		for _, cfg := range frontConfigs(base) {
			name := fmt.Sprintf("%s repair=%v sanitize=%v integrity=%v", fc.name, cfg.c.Repair, cfg.c.SanitizeRecords, cfg.c.Integrity)
			every := 5
			if strings.HasSuffix(fc.name, "/raw") || strings.HasPrefix(fc.name, "contest") {
				every = 1
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				rebuilds.Add(int64(piecewise(t, cfg, fc.eb, dailyRounds(fc.perObs, q1Start, frontDays), every, true)))
			})
		}
	}
}

// TestFrontStateRefusesEarlierRecord: a record older than the committed
// walk is refused, and the rebuild over the whole history matches batch.
func TestFrontStateRefusesEarlierRecord(t *testing.T) {
	cfg := mustResolve(DefaultConfig(q1Start, q1Start+frontDays*netsim.SecondsPerDay))
	fc := frontCases(t)[0]
	rounds := dailyRounds(fc.perObs, q1Start, frontDays)
	// Day 3's first record of stream 0 arrives again, in day 9's round.
	late := rounds[3][0][0]
	rounds[9][0] = append([]probe.Record{late}, rounds[9][0]...)
	if n := piecewise(t, cfg, fc.eb, rounds, 1, true); n != 1 {
		t.Errorf("%d advances refused, want the one carrying the late record", n)
	}
}

// fuzzRounds splits the fuzzed streams into rounds at cut points drawn
// from seed, some of them empty.
func fuzzRounds(perObs [][]probe.Record, seed byte) [][][]probe.Record {
	n := 1 + int(seed%16)
	rounds := make([][][]probe.Record, n)
	for r := range rounds {
		rounds[r] = make([][]probe.Record, len(perObs))
	}
	x := uint64(seed) + 1
	for o, s := range perObs {
		cuts := make([]int, n+1)
		for r := 1; r < n; r++ {
			x = netsim.Hash64(x + uint64(o))
			cuts[r] = int(x % uint64(len(s)+1))
		}
		cuts[n] = len(s)
		sort.Ints(cuts)
		for r := range rounds {
			rounds[r][o] = s[cuts[r]:cuts[r+1]]
		}
	}
	return rounds
}

// FuzzIncrementalFrontHalf: random streams, with late, duplicate,
// conflicting and cross-observer-tied records, split into random rounds,
// under every Repair × SanitizeRecords × Integrity choice, give after
// every round the front half frontHalf gives over everything so far. The
// first byte draws the rounds; the rest is FuzzFrontHalf's encoding.
func FuzzIncrementalFrontHalf(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{5, 7, 3, 2})
	seed := []byte{9, 1 | 4 | 16, 2, 3}
	for i := 0; i < 400; i++ {
		seed = append(seed, byte(i%3)<<4|byte(i*7%12), byte(i%5), byte(i/40))
	}
	f.Add(seed)
	f.Add(append([]byte{3, 1 | 2 | 4, 1, 200}, seed[4:]...))
	flood := append([]byte{7, 1 | 16, 0, 1}, seed[4:]...)
	for i := 4; i < len(flood); i += 9 {
		flood[i] &^= 15
	}
	f.Add(flood)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg, perObs, eb := fuzzFront(data[1:])
		piecewise(t, cfg, eb, fuzzRounds(perObs, data[0]), 1, false)
	})
}
