package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

// jan6 is Monday 2020-01-06, a plain workday.
var jan6 = Date(2020, time.January, 6)

func workplaceBlock(t *testing.T, seed uint64) *Block {
	t.Helper()
	b, err := NewBlock(0x800990, seed, Spec{Workers: 60, AlwaysOn: 8, Firewalled: 20})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestClockHelpers(t *testing.T) {
	// 1970-01-01 was a Thursday.
	if wd := Weekday(0); wd != 4 {
		t.Fatalf("Weekday(0) = %d, want 4 (Thursday)", wd)
	}
	// 2020-01-06 was a Monday.
	if wd := Weekday(jan6); wd != 1 {
		t.Fatalf("Weekday(jan6) = %d, want 1 (Monday)", wd)
	}
	if !IsWeekend(Date(2020, time.January, 4)) || !IsWeekend(Date(2020, time.January, 5)) {
		t.Fatal("Jan 4/5 2020 should be weekend")
	}
	if IsWeekend(jan6) {
		t.Fatal("Jan 6 2020 should be a weekday")
	}
	if got := SecondOfDay(jan6 + 3661); got != 3661 {
		t.Fatalf("SecondOfDay = %d, want 3661", got)
	}
	// Negative timestamps floor correctly.
	if DayIndex(-1) != -1 {
		t.Fatalf("DayIndex(-1) = %d, want -1", DayIndex(-1))
	}
	if wd := Weekday(-1); wd < 0 || wd > 6 {
		t.Fatalf("Weekday(-1) = %d out of range", wd)
	}
}

func TestBlockIDString(t *testing.T) {
	id := BlockID(128<<16 | 9<<8 | 144)
	if got := id.String(); got != "128.9.144.0/24" {
		t.Fatalf("BlockID.String = %q", got)
	}
}

func TestNewBlockValidation(t *testing.T) {
	if _, err := NewBlock(1, 1, Spec{Workers: 300}); err == nil {
		t.Error("expected error for > 256 addresses")
	}
	if _, err := NewBlock(1, 1, Spec{Workers: -1}); err == nil {
		t.Error("expected error for negative count")
	}
	if _, err := NewBlock(1, 1, Spec{Workers: 1, HomeProb: 1.5}); err == nil {
		t.Error("expected error for probability > 1")
	}
}

func TestKindAssignmentCountsAndDeterminism(t *testing.T) {
	spec := Spec{Workers: 40, Homes: 30, AlwaysOn: 5, Intermittent: 10, Firewalled: 20}
	b1, err := NewBlock(7, 99, spec)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := NewBlock(7, 99, spec)
	counts := map[AddressKind]int{}
	for a := 0; a < 256; a++ {
		counts[b1.Kind(a)]++
		if b1.Kind(a) != b2.Kind(a) {
			t.Fatalf("same seed produced different layouts at addr %d", a)
		}
	}
	if counts[Worker] != 40 || counts[HomeEvening] != 30 || counts[AlwaysOn] != 5 ||
		counts[Intermittent] != 10 || counts[Firewalled] != 20 || counts[Unused] != 151 {
		t.Fatalf("kind counts wrong: %v", counts)
	}
	b3, _ := NewBlock(7, 100, spec)
	same := true
	for a := 0; a < 256; a++ {
		if b1.Kind(a) != b3.Kind(a) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different layouts")
	}
}

func TestEverActive(t *testing.T) {
	b, err := NewBlock(1, 5, Spec{Workers: 10, AlwaysOn: 2, Firewalled: 50})
	if err != nil {
		t.Fatal(err)
	}
	eb := b.EverActive()
	if len(eb) != 12 {
		t.Fatalf("|E(b)| = %d, want 12", len(eb))
	}
	for _, a := range eb {
		if k := b.Kind(a); k == Unused || k == Firewalled {
			t.Fatalf("E(b) contains %v address", k)
		}
	}
}

func TestUnusedAndFirewalledNeverRespond(t *testing.T) {
	b, err := NewBlock(1, 6, Spec{Firewalled: 128})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 256; a++ {
		for _, tm := range []int64{jan6, jan6 + 12*3600, jan6 + 40*SecondsPerDay} {
			if b.Active(a, tm) {
				t.Fatalf("addr %d (%v) responded", a, b.Kind(a))
			}
		}
	}
}

func TestAlwaysOnAlwaysResponds(t *testing.T) {
	b, err := NewBlock(1, 7, Spec{AlwaysOn: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []int64{jan6, jan6 + 3*3600, jan6 + 100*SecondsPerDay + 7777} {
		if got := b.CountActive(tm); got != 256 {
			t.Fatalf("CountActive(%d) = %d, want 256", tm, got)
		}
	}
}

func TestWorkerDiurnalPattern(t *testing.T) {
	b := workplaceBlock(t, 21)
	noon := b.CountActive(jan6 + 12*3600)
	midnight := b.CountActive(jan6 + 2*3600)
	if noon < 40 {
		t.Errorf("noon active = %d, want most of 60 workers + 8 servers", noon)
	}
	if midnight > 10 {
		t.Errorf("2am active = %d, want only the 8 always-on", midnight)
	}
	if noon-midnight < 30 {
		t.Errorf("daily swing %d too small", noon-midnight)
	}
}

func TestWorkerWeekendQuiet(t *testing.T) {
	b := workplaceBlock(t, 22)
	saturdayNoon := Date(2020, time.January, 4) + 12*3600
	if got := b.CountActive(saturdayNoon); got > 15 {
		t.Errorf("Saturday noon active = %d, want near the 8 always-on", got)
	}
}

func TestWorkerTimezoneShift(t *testing.T) {
	// A UTC+8 block's workday should be in full swing at 04:00 UTC and
	// over by 14:00 UTC.
	b, err := NewBlock(2, 23, Spec{Workers: 60, TZOffset: 8 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.CountActive(jan6 + 4*3600); got < 30 { // 12:00 local
		t.Errorf("04:00 UTC (noon local) active = %d, want >= 30", got)
	}
	if got := b.CountActive(jan6 + 22*3600); got > 5 { // 06:00 local next day
		t.Errorf("22:00 UTC (6am local) active = %d, want few", got)
	}
}

func TestHomeEveningPattern(t *testing.T) {
	b, err := NewBlock(3, 24, Spec{Homes: 80})
	if err != nil {
		t.Fatal(err)
	}
	evening := b.CountActive(jan6 + 21*3600)  // 21:00
	morning := b.CountActive(jan6 + 10*3600)  // weekday 10:00
	nightDeep := b.CountActive(jan6 + 4*3600) // 04:00
	if evening < 40 {
		t.Errorf("evening active = %d, want most of 80", evening)
	}
	if morning > 10 {
		t.Errorf("weekday morning active = %d, want few", morning)
	}
	if nightDeep > 5 {
		t.Errorf("4am active = %d, want ~0", nightDeep)
	}
	// Weekend daytime: home devices online.
	sunday := Date(2020, time.January, 5) + 13*3600
	if got := b.CountActive(sunday); got < 30 {
		t.Errorf("Sunday 13:00 active = %d, want many", got)
	}
}

func TestIntermittentDutyCycle(t *testing.T) {
	b, err := NewBlock(4, 25, Spec{Intermittent: 200})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	samples := 0
	for d := int64(0); d < 7; d++ {
		for h := int64(0); h < 24; h += 3 {
			sum += b.CountActive(jan6 + d*SecondsPerDay + h*3600)
			samples++
		}
	}
	meanActive := float64(sum) / float64(samples)
	if meanActive < 80 || meanActive > 120 {
		t.Errorf("mean active = %.1f, want ~100 (duty 0.5 of 200)", meanActive)
	}
}

func TestWFHEventSilencesWorkers(t *testing.T) {
	b := workplaceBlock(t, 26)
	wfhStart := Date(2020, time.March, 15)
	b.AddEvent(Event{Kind: EventWFH, Start: wfhStart, Adoption: 0.95})
	// Monday before (Mar 9) vs Monday after (Mar 16), both at noon.
	before := b.CountActive(Date(2020, time.March, 9) + 12*3600)
	after := b.CountActive(Date(2020, time.March, 16) + 12*3600)
	if before < 40 {
		t.Fatalf("pre-WFH noon = %d, want busy", before)
	}
	if after > before/3 {
		t.Fatalf("post-WFH noon = %d, want sharp drop from %d", after, before)
	}
}

func TestWFHAdoptionFraction(t *testing.T) {
	b, err := NewBlock(5, 27, Spec{Workers: 200})
	if err != nil {
		t.Fatal(err)
	}
	wfhStart := Date(2020, time.March, 15)
	b.AddEvent(Event{Kind: EventWFH, Start: wfhStart, Adoption: 0.5})
	before := b.CountActive(Date(2020, time.March, 9) + 12*3600)
	after := b.CountActive(Date(2020, time.March, 16) + 12*3600)
	ratio := float64(after) / float64(before)
	if ratio < 0.3 || ratio > 0.7 {
		t.Errorf("50%% adoption left %.0f%% active, want ~50%%", ratio*100)
	}
}

func TestWFHBoostsHomeDaytime(t *testing.T) {
	b, err := NewBlock(6, 28, Spec{Homes: 100})
	if err != nil {
		t.Fatal(err)
	}
	b.AddEvent(Event{Kind: EventWFH, Start: Date(2020, time.March, 15), Adoption: 0.9})
	before := b.CountActive(Date(2020, time.March, 10) + 11*3600) // Tue 11:00
	after := b.CountActive(Date(2020, time.March, 17) + 11*3600)
	if after <= before+20 {
		t.Errorf("WFH should boost home daytime: before=%d after=%d", before, after)
	}
}

func TestHolidayEvent(t *testing.T) {
	b := workplaceBlock(t, 29)
	// MLK day: Monday 2020-01-20.
	mlk := Date(2020, time.January, 20)
	b.AddEvent(Event{Kind: EventHoliday, Start: mlk, End: mlk + SecondsPerDay, Adoption: 0.9})
	holidayNoon := b.CountActive(mlk + 12*3600)
	normalNoon := b.CountActive(jan6 + 12*3600)
	if holidayNoon > normalNoon/2 {
		t.Errorf("holiday noon = %d vs normal %d, want big drop", holidayNoon, normalNoon)
	}
	// The next day is back to normal.
	nextNoon := b.CountActive(mlk + SecondsPerDay + 12*3600)
	if nextNoon < normalNoon-15 {
		t.Errorf("day after holiday = %d vs normal %d, want recovery", nextNoon, normalNoon)
	}
}

func TestCurfewKeepsHomeOnAllDay(t *testing.T) {
	b, err := NewBlock(8, 30, Spec{Homes: 100})
	if err != nil {
		t.Fatal(err)
	}
	start := Date(2020, time.March, 22)
	b.AddEvent(Event{Kind: EventCurfew, Start: start, End: start + 3*SecondsPerDay})
	during := b.CountActive(start + SecondsPerDay + 11*3600) // weekday daytime
	before := b.CountActive(Date(2020, time.March, 17) + 11*3600)
	if during <= before+20 {
		t.Errorf("curfew daytime = %d vs before %d, want boost", during, before)
	}
}

func TestOutageSilencesEverything(t *testing.T) {
	b := workplaceBlock(t, 31)
	start := jan6 + 10*3600
	b.AddEvent(Event{Kind: EventOutage, Start: start, End: start + 2*3600})
	if got := b.CountActive(start + 3600); got != 0 {
		t.Fatalf("mid-outage active = %d, want 0", got)
	}
	if got := b.CountActive(start + 3*3600); got == 0 {
		t.Fatal("post-outage should recover")
	}
}

func TestRenumberGapAndGeneration(t *testing.T) {
	b := workplaceBlock(t, 32)
	start := jan6 + 10*3600 // mid-workday
	b.AddEvent(Event{Kind: EventRenumber, Start: start})
	if got := b.CountActive(start + 3600); got > 10 {
		t.Fatalf("renumber gap active = %d, want only always-on (8)", got)
	}
	// After the gap, activity resumes on the same day.
	if got := b.CountActive(start + renumberGapSeconds + 1800); got < 30 {
		t.Fatalf("post-renumber active = %d, want recovery", got)
	}
	// Always-on addresses ride through.
	onCount := 0
	for a := 0; a < 256; a++ {
		if b.Kind(a) == AlwaysOn && b.Active(a, start+60) {
			onCount++
		}
	}
	if onCount != 8 {
		t.Fatalf("always-on during renumber = %d, want 8", onCount)
	}
}

func TestActiveIsDeterministic(t *testing.T) {
	f := func(seed uint64, addr uint8, dt uint32) bool {
		spec := Spec{Workers: 50, Homes: 50, AlwaysOn: 10, Intermittent: 20}
		b1, err := NewBlock(9, seed, spec)
		if err != nil {
			return false
		}
		b2, _ := NewBlock(9, seed, spec)
		tm := jan6 + int64(dt%(90*SecondsPerDay))
		return b1.Active(int(addr), tm) == b2.Active(int(addr), tm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStateStableWithinShortWindows(t *testing.T) {
	// The paper's reconstruction assumes "addresses do not change state
	// until they are re-scanned" — state changes are slow relative to
	// probing. Measure the per-round flip rate of a busy block: it should
	// be small (well under 2% of addresses per 11-minute round).
	b, err := NewBlock(10, 33, Spec{Workers: 100, Homes: 60, AlwaysOn: 20})
	if err != nil {
		t.Fatal(err)
	}
	flips, checks := 0, 0
	var prev [256]bool
	for a := 0; a < 256; a++ {
		prev[a] = b.Active(a, jan6)
	}
	for r := 1; r < 131*2; r++ { // two days of rounds
		tm := jan6 + int64(r*RoundSeconds)
		for a := 0; a < 256; a++ {
			cur := b.Active(a, tm)
			if cur != prev[a] {
				flips++
			}
			prev[a] = cur
			checks++
		}
	}
	rate := float64(flips) / float64(checks)
	if rate > 0.02 {
		t.Fatalf("per-round flip rate %.4f too high for reconstruction assumptions", rate)
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	r1, r2 := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
	seen := map[int]bool{}
	for _, v := range NewRNG(9).Perm(10) {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatal("Perm not a permutation")
		}
		seen[v] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestHashUnitUniformish(t *testing.T) {
	n := 10000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := HashUnit(uint64(i), 12345)
		if v < 0 || v >= 1 {
			t.Fatalf("HashUnit out of range: %g", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if mean < 0.48 || mean > 0.52 {
		t.Fatalf("HashUnit mean %.4f not ~0.5", mean)
	}
}

func TestKindAndEventStrings(t *testing.T) {
	kinds := []AddressKind{Unused, Firewalled, AlwaysOn, Worker, HomeEvening, Intermittent, AddressKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
	for _, e := range []EventKind{EventWFH, EventHoliday, EventCurfew, EventOutage, EventRenumber, EventKind(99)} {
		if e.String() == "" {
			t.Errorf("empty string for event %d", e)
		}
	}
}

func BenchmarkActiveWorkerBlock(b *testing.B) {
	blk, err := NewBlock(11, 44, Spec{Workers: 100, Homes: 60, AlwaysOn: 20})
	if err != nil {
		b.Fatal(err)
	}
	blk.AddEvent(Event{Kind: EventWFH, Start: Date(2020, time.March, 15), Adoption: 0.8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.Active(i%256, jan6+int64(i%10000)*RoundSeconds)
	}
}

func BenchmarkCountActive(b *testing.B) {
	blk, err := NewBlock(12, 45, Spec{Workers: 100, Homes: 60, AlwaysOn: 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.CountActive(jan6 + int64(i)*RoundSeconds)
	}
}

func TestDormancyDisabledByDefault(t *testing.T) {
	b, err := NewBlock(20, 400, Spec{Workers: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Without DormantProb, weekday-noon counts stay high for months.
	for w := 0; w < 20; w++ {
		noon := jan6 + int64(w)*7*SecondsPerDay + 12*3600
		if got := b.CountActive(noon); got < 30 {
			t.Fatalf("week %d noon = %d; unexpected dormancy", w, got)
		}
	}
}

func TestDormancyCreatesQuietEpochs(t *testing.T) {
	// With a high dormancy probability some epochs should be quiet and
	// others normal, and the pattern must be deterministic.
	spec := Spec{Workers: 80, DormantProb: 0.5, dormantEpochDays: 28}
	b, err := NewBlock(21, 401, spec)
	if err != nil {
		t.Fatal(err)
	}
	quiet, busy := 0, 0
	for e := 0; e < 12; e++ {
		noon := jan6 + int64(e)*28*SecondsPerDay + 12*3600
		// Mondays only, to avoid weekends.
		for Weekday(noon) != 1 {
			noon += SecondsPerDay
		}
		c := b.CountActive(noon)
		if c < 25 {
			quiet++
		} else {
			busy++
		}
	}
	if quiet == 0 || busy == 0 {
		t.Fatalf("dormancy not epoch-like: quiet=%d busy=%d", quiet, busy)
	}
	b2, _ := NewBlock(21, 401, spec)
	for e := 0; e < 12; e++ {
		tm := jan6 + int64(e)*28*SecondsPerDay + 12*3600
		if b.CountActive(tm) != b2.CountActive(tm) {
			t.Fatal("dormancy not deterministic")
		}
	}
}

func TestDormancyValidation(t *testing.T) {
	if _, err := NewBlock(1, 1, Spec{Workers: 5, DormantProb: 1.5}); err == nil {
		t.Fatal("expected error for dormancy probability > 1")
	}
}

func TestHomeMembershipStableAcrossDays(t *testing.T) {
	// A home device that is a regular this month remains a regular: the
	// set of evening responders should overlap heavily day to day.
	b, err := NewBlock(22, 402, Spec{Homes: 80})
	if err != nil {
		t.Fatal(err)
	}
	evening := func(day int64) map[int]bool {
		out := map[int]bool{}
		for a := 0; a < 256; a++ {
			if b.Kind(a) == HomeEvening && b.Active(a, jan6+day*SecondsPerDay+21*3600) {
				out[a] = true
			}
		}
		return out
	}
	d0, d1 := evening(0), evening(1)
	inter := 0
	for a := range d0 {
		if d1[a] {
			inter++
		}
	}
	if len(d0) == 0 || float64(inter)/float64(len(d0)) < 0.8 {
		t.Fatalf("evening membership churns too much: %d of %d overlap", inter, len(d0))
	}
}

// Kind returns the kind of address addr (0..255).
func (b *Block) Kind(addr int) AddressKind { return b.kinds[addr] }

// Float64 returns the next value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}
