package dataset

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

var (
	start2020 = netsim.Date(2020, time.January, 1)
	end2020m1 = netsim.Date(2020, time.January, 29)
)

func TestSpecForArchetypes(t *testing.T) {
	for _, arch := range []geo.Archetype{
		geo.Workplace, geo.HomePublic, geo.NATGateway,
		geo.ServerFarm, geo.FirewalledNet, geo.SparseMixed,
	} {
		s := SpecFor(arch, 99, 3600)
		if s.TZOffset != 3600 {
			t.Errorf("%v: tz not propagated", arch)
		}
		total := s.Workers + s.Homes + s.AlwaysOn + s.Intermittent + s.Firewalled
		if total <= 0 || total > 256 {
			t.Errorf("%v: population %d out of range", arch, total)
		}
		if _, err := netsim.NewBlock(1, 99, s); err != nil {
			t.Errorf("%v: spec rejected: %v", arch, err)
		}
	}
	// Archetype determines the dominant population.
	if s := SpecFor(geo.Workplace, 5, 0); s.Workers == 0 {
		t.Error("workplace should have workers")
	}
	if s := SpecFor(geo.NATGateway, 5, 0); s.AlwaysOn == 0 || s.AlwaysOn > 4 {
		t.Errorf("NAT gateway always-on = %d, want 1..4", s.AlwaysOn)
	}
	if s := SpecFor(geo.FirewalledNet, 5, 0); s.Firewalled < 100 {
		t.Errorf("firewalled net = %d, want >= 100", s.Firewalled)
	}
}

func TestSpecForVariesBySeed(t *testing.T) {
	a := SpecFor(geo.Workplace, 1, 0)
	b := SpecFor(geo.Workplace, 2, 0)
	if a.Workers == b.Workers && a.AlwaysOn == b.AlwaysOn && a.Firewalled == b.Firewalled {
		t.Error("different seeds should vary the population")
	}
}

func TestBuildWorldBasics(t *testing.T) {
	world, err := BuildWorld(WorldOpts{
		Blocks:   300,
		Seed:     4,
		Calendar: events.Year2020(),
		Start:    start2020,
		End:      end2020m1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(world) < 295 || len(world) > 305 {
		t.Fatalf("world size = %d, want ~300", len(world))
	}
	regions := map[string]int{}
	ids := map[netsim.BlockID]int{}
	for _, wb := range world {
		regions[wb.Place.Region.Code]++
		ids[wb.ID]++
	}
	if len(regions) < 15 {
		t.Errorf("only %d regions populated", len(regions))
	}
	// Block IDs should be (nearly) unique at this scale.
	for id, n := range ids {
		if n > 2 {
			t.Errorf("block id %v appears %d times", id, n)
		}
	}
}

func TestBuildWorldAttachesCalendarEvents(t *testing.T) {
	world, err := BuildWorld(WorldOpts{
		Blocks:       400,
		Seed:         5,
		Calendar:     events.Year2020(),
		Start:        start2020,
		End:          netsim.Date(2020, time.July, 1),
		OutageProb:   -1,
		RenumberProb: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sawWFH := false
	for _, wb := range world {
		if wb.Place.Region.Code == "US-LA" {
			for _, e := range wb.Events() {
				if e.Kind == netsim.EventWFH && e.Start == netsim.Date(2020, time.March, 15) {
					sawWFH = true
				}
			}
		}
		// With noise disabled, no outage/renumber events appear.
		for _, e := range wb.Events() {
			if e.Kind == netsim.EventOutage || e.Kind == netsim.EventRenumber {
				t.Fatalf("noise event %v with noise disabled", e.Kind)
			}
		}
	}
	if !sawWFH {
		t.Error("US-LA blocks missing the March 15 WFH event")
	}
}

func TestBuildWorldNoiseEventsInsideWindow(t *testing.T) {
	world, err := BuildWorld(WorldOpts{
		Blocks:       500,
		Seed:         6,
		Start:        start2020,
		End:          end2020m1,
		OutageProb:   0.5,
		RenumberProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	outages, renumbers := 0, 0
	for _, wb := range world {
		for _, e := range wb.Events() {
			switch e.Kind {
			case netsim.EventOutage:
				outages++
				if e.Start < start2020 || e.End > end2020m1+11*3600 {
					t.Fatalf("outage [%d,%d) outside window", e.Start, e.End)
				}
			case netsim.EventRenumber:
				renumbers++
				if e.Start < start2020 || e.Start >= end2020m1 {
					t.Fatalf("renumber at %d outside window", e.Start)
				}
			}
		}
	}
	if outages < 100 || renumbers < 100 {
		t.Fatalf("noise too rare: %d outages, %d renumbers of ~250 expected", outages, renumbers)
	}
}

func TestBuildWorldValidation(t *testing.T) {
	if _, err := BuildWorld(WorldOpts{Blocks: 0, Start: 0, End: 1}); err == nil {
		t.Error("expected error for zero blocks")
	}
	if _, err := BuildWorld(WorldOpts{Blocks: 10, Start: 5, End: 5}); err == nil {
		t.Error("expected error for empty window")
	}
}

func TestBuildWorldDeterministic(t *testing.T) {
	opts := WorldOpts{Blocks: 100, Seed: 9, Start: start2020, End: end2020m1}
	w1, err := BuildWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := BuildWorld(opts)
	for i := range w1 {
		if w1[i].ID != w2[i].ID || w1[i].Place.Cell != w2[i].Place.Cell {
			t.Fatalf("world differs at block %d", i)
		}
	}
}

func TestCatalogMirrorsTable6(t *testing.T) {
	cat := Catalog()
	byName := map[string]Spec{}
	for _, s := range cat {
		if _, dup := byName[s.Name]; dup {
			t.Errorf("duplicate dataset %s", s.Name)
		}
		byName[s.Name] = s
	}
	q1, err := FindSpec("2020q1-ejnw")
	if err != nil {
		t.Fatal(err)
	}
	if q1.Weeks != 12 || len(q1.Sites) != 4 {
		t.Fatalf("2020q1-ejnw = %+v", q1)
	}
	if q1.Start != netsim.Date(2020, time.January, 1) {
		t.Error("q1 start wrong")
	}
	if q1.End() != q1.Start+12*7*netsim.SecondsPerDay {
		t.Error("End computed wrong")
	}
	survey, err := FindSpec("2020it89-w")
	if err != nil {
		t.Fatal(err)
	}
	if !survey.Survey || survey.Weeks != 2 {
		t.Fatalf("survey spec = %+v", survey)
	}
	if survey.Start != netsim.Date(2020, time.February, 19) {
		t.Error("survey start should be 2020-02-19 (it89)")
	}
	if _, err := FindSpec("nope"); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestObserverFor(t *testing.T) {
	w, err := ObserverFor("w", func(id netsim.BlockID) bool { return id == 3 })
	if err != nil {
		t.Fatal(err)
	}
	if w.Loss == nil || w.Loss.DiurnalAmp == 0 {
		t.Error("site w should have diurnal congestive loss")
	}
	if w.Loss.Rate(4, 0) != 0 {
		t.Error("site w loss should be destination-matched")
	}
	c, err := ObserverFor("c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Loss == nil || c.Loss.Base < 0.3 {
		t.Error("site c should model 2020 hardware problems")
	}
	e, err := ObserverFor("e", nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Loss != nil {
		t.Error("site e should be clean")
	}
	if _, err := ObserverFor("zz", nil); err == nil {
		t.Error("expected error for unknown site")
	}
}

func TestEngineFor(t *testing.T) {
	spec, err := FindSpec("2020q1-ejnw")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := EngineFor(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.Observers) != 4 {
		t.Fatalf("engine has %d observers", len(eng.Observers))
	}
	if err := eng.Validate(); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(eng.Observers))
	for i, o := range eng.Observers {
		names[i] = o.Name
	}
	if strings.Join(names, "") != "ejnw" {
		t.Errorf("observer order = %v", names)
	}
	survey, _ := FindSpec("2020it89-w")
	if _, err := EngineFor(survey, nil); err == nil {
		t.Error("expected error for survey spec")
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	recs := []probe.Record{
		{T: 1577836800, Addr: 3, Up: true},
		{T: 1577836800, Addr: 17, Up: false},
		{T: 1577837460, Addr: 250, Up: true},
		{T: 1577999999, Addr: 0, Up: false},
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestRecordCodecEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecords(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d records from empty log", len(got))
	}
}

func TestRecordCodecErrors(t *testing.T) {
	if err := WriteRecords(&bytes.Buffer{}, []probe.Record{{T: 10}, {T: 5}}); err == nil {
		t.Error("expected error for out-of-order records")
	}
	if _, err := ReadRecords(bytes.NewReader([]byte("BADMAGIC"))); err == nil {
		t.Error("expected error for bad magic")
	}
	if _, err := ReadRecords(bytes.NewReader(nil)); err == nil {
		t.Error("expected error for empty input")
	}
	// Truncated payload.
	var buf bytes.Buffer
	if err := WriteRecords(&buf, []probe.Record{{T: 1, Addr: 2, Up: true}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, err := ReadRecords(bytes.NewReader(trunc)); err == nil {
		t.Error("expected error for truncated log")
	}
}

func TestRecordCodecRealStream(t *testing.T) {
	blk, err := netsim.NewBlock(55, 66, netsim.Spec{Workers: 40, AlwaysOn: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := &probe.Engine{Observers: probe.StandardObservers(1), QuarterSeed: 2}
	perObs, err := eng.Collect(blk, start2020, start2020+netsim.SecondsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, perObs[0]); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(perObs[0]) {
		t.Fatalf("round trip lost records: %d vs %d", len(got), len(perObs[0]))
	}
	for i := range got {
		if got[i] != perObs[0][i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// The encoding should be compact: well under 4 bytes per record.
	if perRec := float64(buf.Len()) / float64(len(got)); perRec > 4 {
		t.Errorf("encoding uses %.1f bytes/record, want <= 4", perRec)
	}
}

func BenchmarkBuildWorld1000(b *testing.B) {
	opts := WorldOpts{Blocks: 1000, Seed: 7, Calendar: events.Year2020(),
		Start: start2020, End: end2020m1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildWorld(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Name: "test-2020w1", Start: start2020, Weeks: 1, Sites: []string{"e", "j"}}
	world, err := BuildWorld(WorldOpts{
		Blocks: 12, Seed: 21, Start: spec.Start, End: spec.End(),
		OutageProb: -1, RenumberProb: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := EngineFor(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := CreateStore(dir, spec, eng, world)
	if err != nil {
		t.Fatal(err)
	}
	name, start, end, sites, blocks, err := store.Index()
	if err != nil {
		t.Fatal(err)
	}
	if name != "test-2020w1" || start != spec.Start || end != spec.End() || len(sites) != 2 {
		t.Fatalf("index = %s %d %d %v", name, start, end, sites)
	}
	if len(blocks) == 0 {
		t.Fatal("no blocks in store")
	}

	// Reload a block and compare against a fresh simulation.
	var target *WorldBlock
	for _, wb := range world {
		if wb.ID == blocks[0] {
			target = wb
		}
	}
	if target == nil {
		t.Fatal("indexed block not in world")
	}
	perObs, eb, err := store.LoadBlock(blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(perObs) != 2 {
		t.Fatalf("observers = %d", len(perObs))
	}
	fresh, err := eng.Collect(target.Block, spec.Start, spec.End())
	if err != nil {
		t.Fatal(err)
	}
	for oi := range fresh {
		if len(fresh[oi]) != len(perObs[oi]) {
			t.Fatalf("obs %d: %d vs %d records", oi, len(fresh[oi]), len(perObs[oi]))
		}
		for i := range fresh[oi] {
			if fresh[oi][i] != perObs[oi][i] {
				t.Fatalf("obs %d record %d differs after round trip", oi, i)
			}
		}
	}
	if len(eb) != len(target.EverActive()) {
		t.Fatal("E(b) not preserved")
	}

	// Reopen from disk.
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store2.LoadBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
}

func TestStoreErrors(t *testing.T) {
	if _, err := OpenStore(t.TempDir()); err == nil {
		t.Error("expected error opening empty dir")
	}
}

func TestRecordCodecQuickRoundTrip(t *testing.T) {
	// Property: any time-ordered record stream survives encode/decode.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]probe.Record, n)
		tm := int64(rng.Int63n(1 << 40))
		for i := range recs {
			tm += rng.Int63n(1000)
			recs[i] = probe.Record{T: tm, Addr: uint8(rng.Intn(256)), Up: rng.Intn(2) == 0}
		}
		var buf bytes.Buffer
		if err := WriteRecords(&buf, recs); err != nil {
			return false
		}
		got, err := ReadRecords(&buf)
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Index reads the store's manifest: the tests' view of what CreateStore
// archived.
func (s *Store) Index() (name string, start, end int64, sites []string, blocks []netsim.BlockID, err error) {
	idx, err := s.readIndex()
	if err != nil {
		return "", 0, 0, nil, nil, err
	}
	for _, b := range idx.Blocks {
		blocks = append(blocks, netsim.BlockID(b.ID))
	}
	return idx.Name, idx.Start, idx.End, idx.Sites, blocks, nil
}

// LoadBlock decodes one block's whole per-observer logs and its E(b)
// straight from the archive, by block ID: the oracle the store tests
// check archived content and corruption scoping against. A damaged log
// surfaces as an error wrapping ErrCorruptLog.
func (s *Store) LoadBlock(id netsim.BlockID) (perObs [][]probe.Record, eb []int, err error) {
	idx, err := s.readIndex()
	if err != nil {
		return nil, nil, err
	}
	found := false
	for _, b := range idx.Blocks {
		if netsim.BlockID(b.ID) == id {
			eb = b.EverActive
			found = true
			break
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("dataset: block %v not in store", id)
	}
	for oi := 0; oi < len(idx.Sites); oi++ {
		data, err := s.logData(logName(id, oi))
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: block %v obs %d: %w", id, oi, err)
		}
		records, err := DecodeRecordsBytes(data)
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: block %v obs %d: %w", id, oi, err)
		}
		perObs = append(perObs, records)
	}
	return perObs, eb, nil
}
