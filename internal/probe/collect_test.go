package probe_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// hookCall is one call into an observer's Down or ExtraLoss hook.
type hookCall struct {
	obs  int
	hook string
	t    int64
	addr int
	out  bool
}

// emitted is one Run callback.
type emitted struct {
	obs int
	r   probe.Record
}

// instrument returns a copy of eng whose Down and ExtraLoss hooks append
// every call, in call order, to *log.
func instrument(eng *probe.Engine, log *[]hookCall) *probe.Engine {
	out := *eng
	out.Observers = append([]probe.Observer(nil), eng.Observers...)
	for oi := range out.Observers {
		o := &out.Observers[oi]
		if down := o.Down; down != nil {
			o.Down = func(t int64) bool {
				v := down(t)
				*log = append(*log, hookCall{obs: oi, hook: "down", t: t, out: v})
				return v
			}
		}
		if loss := o.ExtraLoss; loss != nil {
			o.ExtraLoss = func(id netsim.BlockID, t int64, addr int) bool {
				v := loss(id, t, addr)
				*log = append(*log, hookCall{obs: oi, hook: "loss", t: t, addr: addr, out: v})
				return v
			}
		}
	}
	return &out
}

// checkAgainstReference holds Collect and Run to the previous probing loop
// on one block and window: the same records byte for byte, the same Run
// emission order, and the same ordered Down/ExtraLoss call log. mk builds
// a fresh engine per run, since hooks may carry channel state.
func checkAgainstReference(t testing.TB, name string, mk func() *probe.Engine, b *netsim.Block, start, end int64) {
	t.Helper()
	var wantLog, gotLog []hookCall
	want, wantErr := probe.CollectReference(instrument(mk(), &wantLog), b, start, end)
	got, gotErr := instrument(mk(), &gotLog).Collect(b, start, end)
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("%s: Collect error %v, reference %v", name, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d observer streams, reference %d", name, len(got), len(want))
	}
	for oi := range want {
		if len(got[oi]) != len(want[oi]) {
			t.Fatalf("%s: observer %d: %d records, reference %d", name, oi, len(got[oi]), len(want[oi]))
		}
		for i := range want[oi] {
			if got[oi][i] != want[oi][i] {
				t.Fatalf("%s: observer %d record %d = %+v, reference %+v", name, oi, i, got[oi][i], want[oi][i])
			}
		}
	}
	checkLog(t, name+" Collect", gotLog, wantLog)

	var wantRun, gotRun []emitted
	wantLog, gotLog = nil, nil
	wantErr = probe.RunReference(instrument(mk(), &wantLog), b, start, end, func(obs int, r probe.Record) {
		wantRun = append(wantRun, emitted{obs, r})
	})
	gotErr = instrument(mk(), &gotLog).Run(b, start, end, func(obs int, r probe.Record) {
		gotRun = append(gotRun, emitted{obs, r})
	})
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("%s: Run error %v, reference %v", name, gotErr, wantErr)
	}
	if len(gotRun) != len(wantRun) {
		t.Fatalf("%s: Run emitted %d records, reference %d", name, len(gotRun), len(wantRun))
	}
	for i := range wantRun {
		if gotRun[i] != wantRun[i] {
			t.Fatalf("%s: Run emission %d = %+v, reference %+v", name, i, gotRun[i], wantRun[i])
		}
	}
	checkLog(t, name+" Run", gotLog, wantLog)
}

func checkLog(t testing.TB, name string, got, want []hookCall) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hook calls, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: hook call %d = %+v, reference %+v", name, i, got[i], want[i])
		}
	}
}

// downIn is an internal/faults-style downtime hook: offline inside any of
// the half-open windows.
func downIn(windows ...[2]int64) func(int64) bool {
	return func(t int64) bool {
		for _, w := range windows {
			if t >= w[0] && t < w[1] {
				return true
			}
		}
		return false
	}
}

// burstLoss is an internal/faults-style Gilbert–Elliott channel: its good
// or bad state steps once per elapsed round and is carried across calls,
// so the result depends on the exact order and number of calls.
func burstLoss(seed uint64) func(netsim.BlockID, int64, int) bool {
	bad, started := false, false
	var last int64
	return func(id netsim.BlockID, t int64, addr int) bool {
		round := t / netsim.RoundSeconds
		if !started {
			started, last = true, round
			bad = netsim.HashUnit(seed, uint64(id), 1) < 0.3
		}
		for ; last < round; last++ {
			u := netsim.HashUnit(seed, uint64(id), uint64(last+1), 2)
			if bad {
				bad = u >= 0.3
			} else {
				bad = u < 0.15
			}
		}
		rate := 0.02
		if bad {
			rate = 0.6
		}
		return netsim.HashUnit(seed, uint64(id), uint64(t), uint64(addr), 3) < rate
	}
}

// referenceBlocks is a spread of populations: a generated world with dense
// outage and renumbering noise, plus blocks that stop on the first probe,
// exhaust the budget, have fewer targets than the budget, or none at all.
func referenceBlocks(t testing.TB, start, end int64) []*netsim.Block {
	t.Helper()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks: 10, Seed: 3, Calendar: events.Year2020(), Start: start, End: end,
		OutageProb: 0.5, RenumberProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*netsim.Block
	for _, wb := range world {
		blocks = append(blocks, wb.Block)
	}
	for i, spec := range []netsim.Spec{
		{AlwaysOn: 256},
		{Workers: 100, TZOffset: -5 * 3600},
		{AlwaysOn: 2, Intermittent: 1},
		{Firewalled: 40},
		{Homes: 60, Intermittent: 30, DormantProb: 0.5, TZOffset: 8 * 3600},
	} {
		b, err := netsim.NewBlock(netsim.BlockID(0x0a0000+i), uint64(i)+17, spec)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// TestCollectMatchesReference holds the rotation-driven, table-lossed
// collection to the previous min-scan loop, which re-evaluated the loss
// model per probe, across observer sets, every catalog engine, equal
// phases, downtime and burst loss, and windows that are unaligned to a
// round, shorter than one round, and longer than the loss table's period.
func TestCollectMatchesReference(t *testing.T) {
	jan6 := netsim.Date(2020, time.January, 6)
	day := int64(netsim.SecondsPerDay)
	windows := []struct {
		name       string
		start, end int64
	}{
		{"aligned-2d", jan6, jan6 + 2*day},
		{"unaligned-2d", jan6 + 137, jan6 + 2*day + 301},
		{"sub-round", jan6 + 50, jan6 + 350},
		{"12d", jan6 + 7, jan6 + 12*day + 400}, // > 1440 rounds: the loss table wraps
	}
	blocks := referenceBlocks(t, jan6, jan6+13*day)
	quarter := func(id netsim.BlockID) bool { return netsim.Hash64(uint64(id))%4 == 0 }

	type engineCase struct {
		name string
		mk   func() *probe.Engine
	}
	var cases []engineCase
	for n := 1; n <= 6; n++ {
		n := n
		cases = append(cases, engineCase{fmt.Sprintf("standard%d", n), func() *probe.Engine {
			return &probe.Engine{Observers: probe.StandardObservers(n), QuarterSeed: uint64(n)}
		}})
	}
	for extra := 1; extra <= 4; extra++ {
		extra := extra
		cases = append(cases, engineCase{fmt.Sprintf("extra%d", extra), func() *probe.Engine {
			obs := probe.StandardObservers(4)
			for i := range obs {
				obs[i].Extra = extra
			}
			obs[0].Loss = &probe.LossModel{Base: 0.1, DiurnalAmp: 0.3, TZOffset: -3 * 3600}
			return &probe.Engine{Observers: obs, QuarterSeed: 99}
		}})
	}
	cases = append(cases, engineCase{"equal-phases", func() *probe.Engine {
		obs := probe.StandardObservers(5)
		for i := range obs {
			obs[i].Phase = []int64{200, 0, 200, 0, 659}[i]
		}
		obs[2].Loss = &probe.LossModel{Base: 0.2}
		obs[3].Extra = 2
		// Hooks on tied observers make the call log depend on the tie
		// order; one burst channel shared by observers 1 and 3 makes their
		// records depend on it too.
		shared := burstLoss(11)
		obs[1].ExtraLoss, obs[3].ExtraLoss = shared, shared
		obs[0].ExtraLoss = burstLoss(12)
		obs[0].Down = downIn([2]int64{jan6 + 4*3600, jan6 + 9*3600})
		obs[2].Down = downIn([2]int64{jan6 + 4*3600, jan6 + 5*3600})
		return &probe.Engine{Observers: obs, QuarterSeed: 5}
	}})
	for _, spec := range dataset.Catalog() {
		if spec.Survey {
			continue
		}
		for _, lossy := range []struct {
			name  string
			match func(netsim.BlockID) bool
		}{{"all", nil}, {"quarter", quarter}} {
			spec, lossy := spec, lossy
			cases = append(cases, engineCase{spec.Name + "/" + lossy.name, func() *probe.Engine {
				eng, err := dataset.EngineFor(spec, lossy.match)
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}})
		}
	}
	cases = append(cases, engineCase{"sites-wejncg", func() *probe.Engine {
		eng := &probe.Engine{QuarterSeed: 8}
		for _, site := range []string{"w", "e", "j", "n", "c", "g"} {
			o, err := dataset.ObserverFor(site, quarter)
			if err != nil {
				t.Fatal(err)
			}
			eng.Observers = append(eng.Observers, o)
		}
		return eng
	}})
	cases = append(cases, engineCase{"faults", func() *probe.Engine {
		spec, err := dataset.FindSpec("2020q1-ejnw")
		if err != nil {
			t.Fatal(err)
		}
		eng, err := dataset.EngineFor(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := int64(netsim.RoundSeconds)
		obs := eng.Observers
		obs[0].Down = downIn([2]int64{jan6 + 3*3600 + 17, jan6 + 5*3600})
		obs[1].Down = downIn([2]int64{jan6 + 10*3600 + 5, jan6 + 10*3600 + 200}, [2]int64{jan6 + day, jan6 + day + 3*r})
		obs[2].Down = downIn([2]int64{jan6 + 2*3600, jan6 + 11*day + 2*3600}) // longer than 1440 rounds
		obs[0].ExtraLoss = burstLoss(1)
		obs[3].ExtraLoss = burstLoss(2)
		obs[3].Down = downIn([2]int64{jan6 + 6*3600, jan6 + 6*3600 + r})
		return eng
	}})

	for _, c := range cases {
		for _, w := range windows {
			for bi, b := range blocks {
				checkAgainstReference(t, fmt.Sprintf("%s/%s/block%d", c.name, w.name, bi), c.mk, b, w.start, w.end)
			}
		}
	}
}

// FuzzCollect drives random engines over random blocks and windows and
// holds Collect and Run to the reference loop.
func FuzzCollect(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0), uint8(0), uint16(0), uint32(86400), uint8(5), uint8(60), uint32(3600), uint32(7200), true)
	f.Add(uint64(7), uint8(6), uint8(1), uint8(3), uint16(137), uint32(301), uint8(0), uint8(0), uint32(0), uint32(0), false)
	f.Add(uint64(42), uint8(2), uint8(3), uint8(4), uint16(659), uint32(200000), uint8(255), uint8(255), uint32(50000), uint32(100), true)
	jan6 := netsim.Date(2020, time.January, 6)
	f.Fuzz(func(t *testing.T, seed uint64, nObs, phaseMode, extra uint8, startOff uint16, length uint32,
		base, amp uint8, downAt, downLen uint32, burst bool) {
		u := func(salt uint64, n int) int { return int(netsim.Hash64(seed, salt) % uint64(n)) }
		spec := netsim.Spec{
			Workers: u(1, 80), Homes: u(2, 50), AlwaysOn: u(3, 30), Intermittent: u(4, 30), Firewalled: u(5, 30),
			TZOffset: int64(u(6, 25)-12) * 3600,
		}
		b, err := netsim.NewBlock(netsim.BlockID(seed&0xffffff), seed, spec)
		if err != nil {
			t.Skip()
		}
		start := jan6 + int64(startOff)
		end := start + int64(length%(3*netsim.SecondsPerDay))
		mk := func() *probe.Engine {
			obs := probe.StandardObservers(int(nObs%6) + 1)
			for i := range obs {
				switch phaseMode % 3 {
				case 1: // all equal
					obs[i].Phase = int64(phaseMode) % netsim.RoundSeconds
				case 2: // random, collisions likely
					obs[i].Phase = int64(u(uint64(10+i), 4)) * 200
				}
				obs[i].Extra = int(extra % 5)
			}
			obs[0].Loss = &probe.LossModel{
				Base: float64(base) / 255, DiurnalAmp: float64(amp) / 255, TZOffset: int64(u(7, 86400)),
				Match: func(id netsim.BlockID) bool { return seed&1 == 0 || id%2 == 0 },
			}
			last := &obs[len(obs)-1]
			from := start + int64(downAt%(3*netsim.SecondsPerDay))
			last.Down = downIn([2]int64{from, from + int64(downLen%(2*netsim.SecondsPerDay))})
			if burst {
				// Shared by the first and last observers, so the records
				// depend on the order of their rounds, ties included.
				ch := burstLoss(seed)
				obs[0].ExtraLoss, last.ExtraLoss = ch, ch
			}
			return &probe.Engine{Observers: obs, QuarterSeed: seed >> 3}
		}
		checkAgainstReference(t, "fuzz", mk, b, start, end)
	})
}

// BenchmarkCollectWorld is the collect stage on its own: the 2020q1-ejnw
// catalog engine (four observers, w on its congested link) probing every
// block of a generated world over the full 12-week window, with buffers
// reused across blocks the way the pipeline's workers reuse them.
func BenchmarkCollectWorld(b *testing.B) {
	spec, err := dataset.FindSpec("2020q1-ejnw")
	if err != nil {
		b.Fatal(err)
	}
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks: 48, Seed: 1, Calendar: events.Year2020(), Start: spec.Start, End: spec.End(),
	})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := dataset.EngineFor(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var bufs [][]probe.Record
	records := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, wb := range world {
			if bufs, err = eng.CollectInto(ctx, wb.Block, spec.Start, spec.End(), bufs); err != nil {
				b.Fatal(err)
			}
			for _, buf := range bufs {
				records += len(buf)
			}
		}
	}
	blocks := float64(b.N * len(world))
	b.ReportMetric(float64(b.Elapsed().Microseconds())/blocks, "us/block")
	b.ReportMetric(float64(records)/blocks, "records/block")
}
