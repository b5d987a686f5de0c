package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/outage"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
)

// The front half of the kernel — repair, merge, contest resolution,
// reconstruction, outage belief — is two passes that never materialise the
// merged stream. The tests here hold it, bit for bit, to the staged
// composition of the exported stages it replaced (reference_test.go). They
// are the only guard the belief has: the benchmark's staged replica
// compares Series, Class and the trend columns but not the outages.

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

// streamsClean reports whether every stream already satisfies Sanitize's
// invariants — the condition under which a prober may call itself clean
// and the kernel be told to trust it.
func streamsClean(cfg Config, perObs [][]probe.Record) bool {
	for _, s := range cloneStreams(perObs) {
		out, rep := reconstruct.Sanitize(s, cfg.AnalysisStart, cfg.AnalysisEnd)
		if rep != (reconstruct.SanitizeReport{}) || len(out) != len(s) {
			return false
		}
	}
	return true
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
// combinations of cfg.
func frontConfigs(cfg Config) []Config {
	var out []Config
	for bits := 0; bits < 8; bits++ {
		c := cfg
		c.Repair, c.SanitizeRecords, c.Integrity = bits&1 != 0, bits&2 != 0, bits&4 != 0
		out = append(out, c)
	}
	return out
}

// TestFrontHalfMatchesStaged is the differential oracle. Each of the two
// workers owns one Scratch for all its cases, as a pipeline worker does, so
// under the race detector a cursor or accumulator shared between workers
// would show.
func TestFrontHalfMatchesStaged(t *testing.T) {
	base, err := DefaultConfig(q1Start, q1Start+frontDays*netsim.SecondsPerDay).resolved()
	if err != nil {
		t.Fatal(err)
	}
	cases := frontCases(t)
	type tally struct{ compared, rewalked, withOutages int }
	const workers = 2
	tallies := make([]tally, workers)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			sc, ref := NewScratch(), NewScratch()
			for ci := w; ci < len(cases); ci += workers {
				fc := cases[ci]
				clean := streamsClean(base, fc.perObs)
				for _, cfg := range frontConfigs(base) {
					for _, trust := range []bool{false, true} {
						if trust && !clean {
							continue
						}
						name := fmt.Sprintf("%s repair=%v sanitize=%v integrity=%v trust=%v",
							fc.name, cfg.Repair, cfg.SanitizeRecords, cfg.Integrity, trust)
						want, err := cfg.referenceAnalyzeCollected(cloneStreams(fc.perObs), fc.eb, ref, trust)
						if err != nil {
							t.Errorf("%s: oracle: %v", name, err)
							continue
						}
						got, err := cfg.analyzeCollected(cloneStreams(fc.perObs), fc.eb, sc, trust)
						if err != nil {
							t.Errorf("%s: %v", name, err)
							continue
						}
						if err := sameAnalysis(got, want); err != nil {
							t.Errorf("%s: %v", name, err)
						}
						if !trust {
							// The exported front half, as the paper's tables run it.
							series, outages, err := cfg.Reconstruct(cloneStreams(fc.perObs), fc.eb, sc)
							if err != nil {
								t.Errorf("%s: Reconstruct: %v", name, err)
							} else if err := sameFront(front{series, outages, want.Sanitize}, front{want.Series, want.Outages, want.Sanitize}); err != nil {
								t.Errorf("%s: Reconstruct: %v", name, err)
							}
						}
						tallies[w].compared++
						if dropped, _ := sc.cursor.Dropped(); dropped > 0 {
							tallies[w].rewalked++
						}
						if len(got.Outages) > 0 {
							tallies[w].withOutages++
						}
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
	t.Logf("%d analyses compared; %d took the dropped-records re-walk, %d masked with a non-empty outage list",
		total.compared, total.rewalked, total.withOutages)
	if total.rewalked == 0 {
		t.Error("no case dropped records in the walk: the corrected-availability re-walk went untested")
	}
	if total.withOutages == 0 {
		t.Error("no case produced an outage interval: the belief went uncompared")
	}
}

// TestFrontHalfRewalkCorrectsAvailability pins the one trap on the
// hand-built contest, where it is large: the merged stream is a quarter
// shorter than the streams' sum, so a belief run on pass 1's tally would
// use the wrong availability.
func TestFrontHalfRewalkCorrectsAvailability(t *testing.T) {
	cfg, err := DefaultConfig(q1Start, q1Start+frontDays*netsim.SecondsPerDay).resolved()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Integrity = true
	cases := frontCases(t)
	fc := cases[len(cases)-1]
	sc := NewScratch()
	var got, want front
	got.series, got.outages, got.san, err = cfg.frontHalf(cloneStreams(fc.perObs), fc.eb, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	dropped, droppedUp := sc.cursor.Dropped()
	if dropped != 3000 {
		t.Fatalf("walk dropped %d records (%d responsive), want one per round = 3000", dropped, droppedUp)
	}
	want.series, want.outages, want.san, err = cfg.referenceFrontHalf(cloneStreams(fc.perObs), fc.eb, nil, true)
	if err != nil {
		t.Fatal(err)
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
func fuzzFront(data []byte) (cfg Config, perObs [][]probe.Record, eb []int, trust bool) {
	cfg = DefaultConfig(0, 40*netsim.SecondsPerDay)
	if len(data) < 3 {
		return cfg, nil, []int{1}, false
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
	resolved, err := cfg.resolved()
	if err != nil {
		panic(err)
	}
	return resolved, perObs, eb, flags&32 != 0 && streamsClean(resolved, perObs)
}

// FuzzFrontHalf: whatever the records, the two-pass walk neither panics nor
// departs from the staged composition. Only the record-level half runs:
// the series-level half is a function of what is compared here, and with
// sanitizing off it is not safe on arbitrary timestamps
// (blockclass.bestWindow steps day by day from the series' first day to
// its last).
func FuzzFrontHalf(f *testing.F) {
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
	f.Add(append([]byte{1 | 2 | 4 | 32, 8, 200}, seed[3:]...))
	sc := NewScratch()
	var merged []probe.Record
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, perObs, eb, trust := fuzzFront(data)
		var got, want front
		var err error
		want.series, want.outages, want.san, err = cfg.referenceFrontHalf(cloneStreams(perObs), eb, &merged, trust)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		got.series, got.outages, got.san, err = cfg.frontHalf(cloneStreams(perObs), eb, sc, trust)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameFront(got, want); err != nil {
			t.Fatalf("repair=%v sanitize=%v integrity=%v trust=%v, %d streams: %v",
				cfg.Repair, cfg.SanitizeRecords, cfg.Integrity, trust, len(perObs), err)
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

// BenchmarkFrontHalf reads the walk against the staged composition it
// replaced in one run, on a warm Scratch, over fresh copies of the records
// (repair edits them) made outside the timer:
//
//	go test -run '^$' -bench FrontHalf -benchtime 200x ./internal/core
func BenchmarkFrontHalf(b *testing.B) {
	cfg, err := q1Config().resolved()
	if err != nil {
		b.Fatal(err)
	}
	for _, fc := range benchBlocks(b) {
		input := cloneStreams(fc.perObs)
		refill := func() {
			for i, s := range fc.perObs {
				copy(input[i], s)
			}
		}
		sc := NewScratch()
		var merged []probe.Record
		for _, half := range []struct {
			name string
			run  func() (*reconstruct.Series, error)
		}{
			{"walk", func() (*reconstruct.Series, error) {
				s, _, _, err := cfg.frontHalf(input, fc.eb, sc, true)
				return s, err
			}},
			{"staged", func() (*reconstruct.Series, error) {
				s, _, _, err := cfg.referenceFrontHalf(input, fc.eb, &merged, true)
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

// TestFrontHalfAllocations: on a warm Scratch the front half allocates only
// what the BlockAnalysis retains — the Series and its two columns, the
// belief's interval list and the filtered copy of it. The cursor and the
// accumulator live in the Scratch, the detector on the kernel's stack.
func TestFrontHalfAllocations(t *testing.T) {
	cfg, err := q1Config().resolved()
	if err != nil {
		t.Fatal(err)
	}
	// appends is how many times append allocates while a list grows from
	// nil to n elements one at a time (capacities double).
	appends := func(n int) float64 {
		if n == 0 {
			return 0
		}
		return 1 + math.Ceil(math.Log2(float64(n)))
	}
	for _, fc := range benchBlocks(t) {
		input := cloneStreams(fc.perObs)
		raw, err := outage.FromRecords(reconstruct.MergeInto(nil, input), 0, outage.Params{})
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScratch()
		var kept int
		run := func() {
			_, outages, _, err := cfg.frontHalf(input, fc.eb, sc, true)
			if err != nil {
				t.Fatal(err)
			}
			kept = len(outages)
		}
		run()
		allocs := testing.AllocsPerRun(5, run)
		// Series, Times, Counts; then the two interval lists.
		limit := 3 + appends(len(raw)) + appends(kept)
		if allocs > limit {
			t.Errorf("%s: warm front half allocates %.0f times per block, want <= %.0f (%d belief intervals, %d kept)",
				fc.name, allocs, limit, len(raw), kept)
		}
	}
}
