package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/outage"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
)

// The front half of the kernel — sanitize, repair, merge, contest
// resolution, reconstruction, outage belief — is a FrontState that never
// materialises the merged stream and never writes the caller's streams;
// the batch kernel advances the one its Scratch holds once per block. The
// tests here hold it, bit for bit, to the staged composition of the
// exported stages it replaced (reference_test.go), which rewrites its
// input, and hold it to leaving its own input as it was. They are the only
// guard the belief has: the benchmark's staged replica compares Series,
// Class and the trend columns but not the outages.

const frontDays = 21

// frontCase is one block's streams as some collection path delivered them.
type frontCase struct {
	name   string
	perObs [][]probe.Record
	eb     []int
}

func cloneStreams(perObs [][]probe.Record) [][]probe.Record {
	out := make([][]probe.Record, len(perObs))
	for i, s := range perObs {
		out[i] = slices.Clone(s)
	}
	return out
}

// observers spaces k observers' round phases evenly, as StandardObservers
// does for the paper's six sites.
func observers(k int) []probe.Observer {
	obs := make([]probe.Observer, k)
	for i := range obs {
		obs[i] = probe.Observer{
			Name:  fmt.Sprintf("o%d", i),
			Seed:  netsim.Hash64(uint64(i) + 101),
			Phase: int64(i) * netsim.RoundSeconds / int64(k),
		}
	}
	return obs
}

// frontCases collects every block shape raw and through each Byzantine
// attack (mounted by the last observer), plus the hand-built contest.
func frontCases(t testing.TB) []frontCase {
	start, end := q1Start, q1Start+frontDays*netsim.SecondsPerDay
	block := func(id netsim.BlockID, spec netsim.Spec) *netsim.Block {
		b, err := netsim.NewBlock(id, uint64(id)*7+1, spec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	outageBlock := block(6, netsim.Spec{Workers: 40, AlwaysOn: 20})
	oStart := q1Start + 9*netsim.SecondsPerDay
	outageBlock.AddEvent(netsim.Event{Kind: netsim.EventOutage, Start: oStart, End: oStart + 2*netsim.SecondsPerDay})

	gappy := observers(4)
	gappy[1].Down = func(tm int64) bool {
		return tm >= q1Start+5*netsim.SecondsPerDay && tm < q1Start+8*netsim.SecondsPerDay
	}
	silent := observers(3)
	silent[0].Down = func(int64) bool { return true }

	shapes := []struct {
		name  string
		block *netsim.Block
		obs   []probe.Observer
	}{
		{"dense", block(1, netsim.Spec{Workers: 60, AlwaysOn: 40}), observers(4)},
		{"sparse", block(2, netsim.Spec{Workers: 90, Homes: 30}), observers(4)},
		{"gaps", block(3, netsim.Spec{Workers: 50, AlwaysOn: 6}), gappy},
		{"empty-stream", block(4, netsim.Spec{Workers: 50, AlwaysOn: 6}), silent},
		{"one-target", block(5, netsim.Spec{AlwaysOn: 1}), observers(4)},
		{"outage", outageBlock, observers(4)},
		{"k1", block(7, netsim.Spec{Workers: 70, AlwaysOn: 8}), observers(1)},
		{"k9", block(8, netsim.Spec{Workers: 70, AlwaysOn: 8}), observers(9)},
	}
	var cases []frontCase
	for _, sh := range shapes {
		eng := &probe.Engine{Observers: sh.obs, QuarterSeed: 77}
		for _, attack := range append([]string{"raw"}, faults.AttackNames...) {
			var prober Prober = eng
			if attack != "raw" {
				plan, err := faults.AttackPlan(len(sh.obs), attack, 0.3, 9)
				if err != nil {
					t.Fatal(err)
				}
				prober = &faults.Engine{Inner: eng, Plan: plan}
			}
			perObs, err := prober.CollectInto(context.Background(), sh.block, start, end, nil)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, frontCase{sh.name + "/" + attack, perObs, sh.block.EverActive()})
		}
	}

	// Two observers whose rounds share every timestamp and who disagree on
	// address 2: with Integrity the contest collapses (one record dropped
	// per round), so the merged stream is shorter than the streams' sum.
	var a, b []probe.Record
	for r := int64(0); r < 3000; r++ {
		tm := q1Start + r*netsim.RoundSeconds
		up := r < 1000 || r >= 1500
		a = append(a, probe.Record{T: tm, Addr: 1, Up: up}, probe.Record{T: tm, Addr: 2, Up: up})
		b = append(b, probe.Record{T: tm, Addr: 2, Up: !up}, probe.Record{T: tm, Addr: 3, Up: up})
	}
	cases = append(cases, frontCase{"contest/hand-built", [][]probe.Record{a, b}, []int{1, 2, 3}})
	return cases
}

// unchanged reports where the kernel wrote its input: streams against
// headers, a copy of their slice headers, and records, a deep copy, both
// taken before the call.
func unchanged(streams, headers, records [][]probe.Record) error {
	for i, s := range streams {
		if h := headers[i]; len(s) != len(h) || cap(s) != cap(h) || len(s) > 0 && &s[0] != &h[0] {
			return fmt.Errorf("stream %d's slice header was replaced", i)
		}
		if !slices.Equal(s, records[i]) {
			return fmt.Errorf("stream %d's records were written", i)
		}
	}
	return nil
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// front is what the record-level half of the kernel hands the series-level
// half.
type front struct {
	series  *reconstruct.Series
	outages []outage.Interval
	san     reconstruct.SanitizeReport
}

// sameFront holds the walk's output to the oracle's: counts bit for bit,
// nil equal to empty.
func sameFront(got, want front) error {
	switch {
	case !slices.Equal(got.series.Times, want.series.Times) || !bitsEqual(got.series.Counts, want.series.Counts):
		return fmt.Errorf("Series differs: %d points, oracle %d", got.series.Len(), want.series.Len())
	case !slices.Equal(got.outages, want.outages):
		return fmt.Errorf("Outages = %v, oracle %v", got.outages, want.outages)
	case got.san != want.san:
		return fmt.Errorf("Sanitize = %+v, oracle %+v", got.san, want.san)
	}
	return nil
}

// sameAnalysis holds the kernel's whole output to the oracle's.
func sameAnalysis(got, want *BlockAnalysis) error {
	if err := sameFront(front{got.Series, got.Outages, got.Sanitize}, front{want.Series, want.Outages, want.Sanitize}); err != nil {
		return err
	}
	switch {
	case got.Class != want.Class:
		return fmt.Errorf("Class = %+v, oracle %+v", got.Class, want.Class)
	case !bitsEqual(got.Trend, want.Trend) || !bitsEqual(got.Seasonal, want.Seasonal) || !bitsEqual(got.Normalized, want.Normalized):
		return fmt.Errorf("Trend/Seasonal/Normalized differ")
	case !slices.Equal(got.Changes, want.Changes) || !slices.Equal(got.LowConfChanges, want.LowConfChanges):
		return fmt.Errorf("Changes = %v, oracle %v", got.Changes, want.Changes)
	case !slices.Equal(got.OutagePairs, want.OutagePairs):
		return fmt.Errorf("OutagePairs = %v, oracle %v", got.OutagePairs, want.OutagePairs)
	}
	return nil
}

// frontConfigs returns the eight Repair × SanitizeRecords × Integrity
// combinations of cfg, resolved.
func frontConfigs(cfg Config) []Resolved {
	var out []Resolved
	for bits := 0; bits < 8; bits++ {
		c := cfg
		c.Repair, c.SanitizeRecords, c.Integrity = bits&1 != 0, bits&2 != 0, bits&4 != 0
		out = append(out, mustResolve(c))
	}
	return out
}

// mustResolve is Config.Resolve for a config the test knows is valid.
func mustResolve(cfg Config) Resolved {
	r, err := cfg.Resolve()
	if err != nil {
		panic(err)
	}
	return r
}

// TestAdvanceOnceMatchesStaged is the differential oracle. Each of the two
// workers owns one Scratch for all its cases, as a pipeline worker does, so
// under the race detector a front half shared between workers would show.
// The kernel gets each case's own streams, which it must leave as they
// were; the oracle gets a copy.
func TestAdvanceOnceMatchesStaged(t *testing.T) {
	base := DefaultConfig(q1Start, q1Start+frontDays*netsim.SecondsPerDay)
	cases := frontCases(t)
	type tally struct{ compared, rewalked, withOutages int }
	const workers = 2
	tallies := make([]tally, workers)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			sc, ref := NewScratch(), NewScratch()
			var merged []probe.Record
			for ci := w; ci < len(cases); ci += workers {
				fc := cases[ci]
				headers, records := slices.Clone(fc.perObs), cloneStreams(fc.perObs)
				for _, cfg := range frontConfigs(base) {
					name := fmt.Sprintf("%s repair=%v sanitize=%v integrity=%v",
						fc.name, cfg.c.Repair, cfg.c.SanitizeRecords, cfg.c.Integrity)
					staged := cloneStreams(fc.perObs)
					want, err := cfg.referenceAnalyzeCollected(staged, fc.eb, &merged, ref)
					if err != nil {
						t.Errorf("%s: oracle: %v", name, err)
						continue
					}
					got, err := cfg.analyzeCollected(fc.perObs, fc.eb, sc)
					if err != nil {
						t.Errorf("%s: %v", name, err)
						continue
					}
					if err := sameAnalysis(got, want); err != nil {
						t.Errorf("%s: %v", name, err)
					}
					if err := unchanged(fc.perObs, headers, records); err != nil {
						t.Errorf("%s: analyzeCollected: %v", name, err)
					}
					// The exported front half, as the paper's tables run it.
					series, outages, err := cfg.c.Reconstruct(fc.perObs, fc.eb, sc)
					if err != nil {
						t.Errorf("%s: Reconstruct: %v", name, err)
					} else if err := sameFront(front{series, outages, want.Sanitize}, front{want.Series, want.Outages, want.Sanitize}); err != nil {
						t.Errorf("%s: Reconstruct: %v", name, err)
					}
					if err := unchanged(fc.perObs, headers, records); err != nil {
						t.Errorf("%s: Reconstruct: %v", name, err)
					}
					tallies[w].compared++
					if dropped(staged, merged) > 0 {
						tallies[w].rewalked++
					}
					if len(got.Outages) > 0 {
						tallies[w].withOutages++
					}
				}
			}
		}(w)
	}
	var total tally
	for w := 0; w < workers; w++ {
		<-done
	}
	for _, tl := range tallies {
		total.compared += tl.compared
		total.rewalked += tl.rewalked
		total.withOutages += tl.withOutages
	}
	t.Logf("%d analyses compared; %d dropped records in the walk (the belief's re-walk), %d masked with a non-empty outage list",
		total.compared, total.rewalked, total.withOutages)
	if total.rewalked == 0 {
		t.Error("no case dropped records in the walk: the corrected-availability re-walk went untested")
	}
	if total.withOutages == 0 {
		t.Error("no case produced an outage interval: the belief went uncompared")
	}
}

// TestScratchReuseMatchesFresh runs one Scratch over blocks A, B, A — the
// two-observer contest, whose walk drops a record a round and so traces
// its merged stream, then nine observers with another target list — under
// Integrity with sanitizing and repair off, and holds each result bit for
// bit to a fresh Scratch's: nothing of one block's front half may reach
// the next.
func TestScratchReuseMatchesFresh(t *testing.T) {
	c := DefaultConfig(q1Start, q1Start+frontDays*netsim.SecondsPerDay)
	c.Integrity, c.SanitizeRecords, c.Repair = true, false, false
	cfg := mustResolve(c)
	byName := map[string]frontCase{}
	for _, fc := range frontCases(t) {
		byName[fc.name] = fc
	}
	a, b := byName["contest/hand-built"], byName["k9/raw"]
	if slices.Equal(a.eb, b.eb) || len(a.perObs) == len(b.perObs) {
		t.Fatal("blocks A and B must differ in target list and observer count")
	}
	sc := NewScratch()
	for i, fc := range []frontCase{a, b, a} {
		want, err := cfg.analyzeCollected(fc.perObs, fc.eb, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		got, err := cfg.analyzeCollected(fc.perObs, fc.eb, sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAnalysis(got, want); err != nil {
			t.Errorf("block %d (%s) on a reused Scratch: %v", i, fc.name, err)
		}
	}
}

// dropped is how many records the staged composition's merge of streams,
// as it left them sanitized, dropped: within-run duplicates and collapsed
// contests.
func dropped(streams [][]probe.Record, merged []probe.Record) int {
	n := -len(merged)
	for _, s := range streams {
		n += len(s)
	}
	return n
}

// TestAdvanceOnceRewalkCorrectsAvailability pins the one trap on the
// hand-built contest, where it is large: the merged stream is a quarter
// shorter than the streams' sum, so a belief run on the per-stream tally
// would use the wrong availability. Sanitizing is off so that the
// contest's last 250 rounds, past the window's end, are walked too.
func TestAdvanceOnceRewalkCorrectsAvailability(t *testing.T) {
	c := DefaultConfig(q1Start, q1Start+frontDays*netsim.SecondsPerDay)
	c.Integrity, c.SanitizeRecords = true, false
	cfg := mustResolve(c)
	cases := frontCases(t)
	fc := cases[len(cases)-1]
	sc := NewScratch()
	var got, want front
	got.series, got.outages, got.san = cfg.advanceOnce(fc.perObs, fc.eb, sc).front(sc)
	staged := cloneStreams(fc.perObs)
	var merged []probe.Record
	var err error
	want.series, want.outages, want.san, err = cfg.referenceFrontHalf(staged, fc.eb, &merged)
	if err != nil {
		t.Fatal(err)
	}
	if n := dropped(staged, merged); n != 3000 {
		t.Fatalf("the merge dropped %d records, want one per round = 3000", n)
	}
	if err := sameFront(got, want); err != nil {
		t.Error(err)
	}
	if len(want.outages) == 0 {
		t.Error("the staged composition found no outage on the contest; the belief went uncompared")
	}
}

// fuzzFront decodes fuzz bytes into a block: flags, observer count, target
// list, then records three bytes apiece with arbitrary stream, timestamp,
// address and response.
func fuzzFront(data []byte) (r Resolved, perObs [][]probe.Record, eb []int) {
	cfg := DefaultConfig(0, 40*netsim.SecondsPerDay)
	if len(data) < 3 {
		return mustResolve(cfg), nil, []int{1}
	}
	flags, k, targets := data[0], 1+int(data[1]%9), int(data[2])
	cfg.Repair, cfg.SanitizeRecords, cfg.Integrity = flags&1 != 0, flags&2 != 0, flags&4 != 0
	if flags&8 != 0 {
		cfg.OutageMaskMinHours = -1
	}
	if flags&16 != 0 {
		cfg.OutageMaskMinHours = 1
	}
	// Targets come from the small address pool the records draw from; 300
	// is a target no record can carry, so the series never completes.
	for a := 0; a <= targets%8; a++ {
		eb = append(eb, a)
	}
	if targets >= 128 {
		eb = append(eb, 300)
	}
	perObs = make([][]probe.Record, k)
	var tm int64
	for rest := data[3:]; len(rest) >= 3; rest = rest[3:] {
		s := int(rest[0]>>4) % k
		// The low nibble steers time: mostly forward in round-sized steps,
		// sometimes the same timestamp (ties across and within streams),
		// sometimes backward or to the ends of the int64 range.
		switch step := rest[0] & 15; {
		case step < 6:
		case step < 12:
			tm += int64(step-5) * netsim.RoundSeconds
		case step == 12:
			tm -= 3 * netsim.RoundSeconds
		case step == 13:
			tm = math.MaxInt64
		case step == 14:
			tm = math.MinInt64
		default:
			tm = int64(rest[1]) * 3600
		}
		perObs[s] = append(perObs[s], probe.Record{T: tm, Addr: rest[1] % 10, Up: rest[2]&1 != 0})
	}
	return mustResolve(cfg), perObs, eb
}

// FuzzAdvanceOnce: whatever the records, the batch kernel's front half
// neither panics, nor departs from the staged composition, nor writes the
// streams it was given. Only the record-level half runs:
// the series-level half is a function of what is compared here, and with
// sanitizing off it is not safe on arbitrary timestamps
// (blockclass.bestWindow steps day by day from the series' first day to
// its last).
func FuzzAdvanceOnce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 3, 2})
	// Three observers, rounds a few steps apart, ties across streams.
	seed := []byte{1 | 4 | 16, 2, 3}
	for i := 0; i < 400; i++ {
		seed = append(seed, byte(i%3)<<4|byte(i*7%12), byte(i%5), byte(i/40))
	}
	f.Add(seed)
	// The same records with sanitizing off and duplicates within runs.
	flood := append([]byte{1 | 16, 0, 1}, seed[3:]...)
	for i := 3; i < len(flood); i += 9 {
		flood[i] &^= 15
	}
	f.Add(flood)
	f.Add(append([]byte{1 | 2 | 4, 8, 200}, seed[3:]...))
	sc := NewScratch()
	var merged []probe.Record
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, perObs, eb := fuzzFront(data)
		headers, records := slices.Clone(perObs), cloneStreams(perObs)
		var got, want front
		var err error
		want.series, want.outages, want.san, err = cfg.referenceFrontHalf(cloneStreams(perObs), eb, &merged)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		got.series, got.outages, got.san = cfg.advanceOnce(perObs, eb, sc).front(sc)
		if err := sameFront(got, want); err != nil {
			t.Fatalf("repair=%v sanitize=%v integrity=%v, %d streams: %v",
				cfg.c.Repair, cfg.c.SanitizeRecords, cfg.c.Integrity, len(perObs), err)
		}
		if err := unchanged(perObs, headers, records); err != nil {
			t.Fatalf("repair=%v sanitize=%v integrity=%v: %v", cfg.c.Repair, cfg.c.SanitizeRecords, cfg.c.Integrity, err)
		}
	})
}

// benchBlocks are the two shapes the front half's cost depends on: a dense
// block, whose rounds stop at the first reply (runs of a record or two),
// and a sparse one, whose rounds run to the 16-probe budget. Twelve weeks,
// four observers, as in the benchmark world.
func benchBlocks(tb testing.TB) []frontCase {
	var out []frontCase
	for _, sh := range []struct {
		name string
		spec netsim.Spec
	}{
		{"dense", netsim.Spec{Workers: 70, AlwaysOn: 30}},
		{"sparse", netsim.Spec{Workers: 60, Homes: 60, Intermittent: 20}},
	} {
		b, err := netsim.NewBlock(0x0a0b0c, 5, sh.spec)
		if err != nil {
			tb.Fatal(err)
		}
		perObs, err := engine4().Collect(b, q1Start, q1End)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, frontCase{sh.name, perObs, b.EverActive()})
	}
	return out
}

// BenchmarkFrontHalf reads the front half against the staged composition
// it replaced in one run, over fresh copies of the records (the staged
// composition edits them) made outside the timer: "oneshot" is the batch
// kernel's, on a warm Scratch; "rebuild" is a daemon's per-block state
// reset and advanced over the whole history, as on the first refresh
// after Open.
//
//	go test -run '^$' -bench FrontHalf -benchtime 200x ./internal/core
func BenchmarkFrontHalf(b *testing.B) {
	cfg := mustResolve(q1Config())
	for _, fc := range benchBlocks(b) {
		input := cloneStreams(fc.perObs)
		refill := func() {
			for i, s := range fc.perObs {
				copy(input[i], s)
			}
		}
		sc := NewScratch()
		daemon := cfg.NewFrontState(fc.eb)
		var merged []probe.Record
		for _, half := range []struct {
			name string
			run  func() (*reconstruct.Series, error)
		}{
			{"oneshot", func() (*reconstruct.Series, error) {
				s, _, _ := cfg.advanceOnce(input, fc.eb, sc).front(sc)
				return s, nil
			}},
			{"rebuild", func() (*reconstruct.Series, error) {
				daemon.Reset()
				daemon.Advance(input)
				s, _, _ := daemon.front(sc)
				return s, nil
			}},
			{"staged", func() (*reconstruct.Series, error) {
				s, _, _, err := cfg.referenceFrontHalf(input, fc.eb, &merged)
				return s, err
			}},
		} {
			b.Run(fc.name+"/"+half.name, func(b *testing.B) {
				b.ReportAllocs()
				records := 0
				for _, s := range input {
					records += len(s)
				}
				b.SetBytes(int64(records) * 16)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					refill()
					b.StartTimer()
					if _, err := half.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestAdvanceOnceBytes: on a warm Scratch the batch kernel's front half
// allocates at most twice what the Series it returns holds — its two
// columns, sized to the tally's bound on the points — beside the belief's
// interval lists. The stream buffers, cursor and repairs live in the
// Scratch, and a clean stream is read where it lies.
func TestAdvanceOnceBytes(t *testing.T) {
	cfg := mustResolve(q1Config())
	for _, fc := range benchBlocks(t) {
		input := cloneStreams(fc.perObs)
		sc := NewScratch()
		var columns int
		run := func() {
			s, _, _ := cfg.advanceOnce(input, fc.eb, sc).front(sc)
			columns = 8 * (cap(s.Times) + cap(s.Counts))
		}
		run()
		var before, after runtime.MemStats
		const runs = 5
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		perCall := int(after.TotalAlloc-before.TotalAlloc) / runs
		if limit := 2*columns + 64<<10; perCall > limit {
			t.Errorf("%s: warm front half allocates %d bytes per block, want <= %d (Series columns %d bytes)",
				fc.name, perCall, limit, columns)
		}
		t.Logf("%s: %d bytes per block, Series columns %d", fc.name, perCall, columns)
	}
}
