package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCellOfPaperLandmarks(t *testing.T) {
	cases := []struct {
		name     string
		lat, lon float64
		want     string
	}{
		{"Wuhan", 30.59, 114.30, "(30N, 114E)"},
		{"Beijing", 39.90, 116.40, "(38N, 116E)"},
		{"Shanghai", 31.23, 121.47, "(30N, 120E)"},
		{"New Delhi", 28.61, 77.21, "(28N, 76E)"},
		{"Abu Dhabi", 24.45, 54.38, "(24N, 54E)"},
		{"Ljubljana", 46.06, 14.51, "(46N, 14E)"},
	}
	for _, c := range cases {
		if got := CellOf(c.lat, c.lon).String(); got != c.want {
			t.Errorf("%s: cell = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCellOfNegativeCoordinates(t *testing.T) {
	got := CellOf(-33.45, -70.66) // Santiago
	if got.Lat != -17 || got.Lon != -36 {
		t.Fatalf("cell = %+v", got)
	}
	if s := got.String(); s != "(34S, 72W)" {
		t.Fatalf("string = %s", s)
	}
}

func TestCellOfBoundaries(t *testing.T) {
	a := CellOf(30.0, 114.0)
	b := CellOf(31.999, 115.999)
	if a != b {
		t.Fatalf("both coordinates should land in the same cell: %v vs %v", a, b)
	}
	c := CellOf(32.0, 114.0)
	if c == a {
		t.Fatal("32.0 must start the next cell")
	}
}

func TestCellRoundTripProperty(t *testing.T) {
	f := func(latRaw, lonRaw int16) bool {
		lat := float64(latRaw%90) + 0.5
		lon := float64(lonRaw%180) + 0.5
		cell := CellOf(lat, lon)
		clat, clon := cell.Center()
		return math.Abs(clat-lat) <= 1.0+1e-9 && math.Abs(clon-lon) <= 1.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestContinentsAndStrings(t *testing.T) {
	if len(Continents()) != 6 {
		t.Fatal("want 6 continents")
	}
	for _, c := range Continents() {
		if c.String() == "" {
			t.Errorf("continent %d has empty name", c)
		}
	}
	if Continent(99).String() == "" {
		t.Error("unknown continent should still render")
	}
	for _, a := range []Archetype{Workplace, HomePublic, NATGateway, ServerFarm, FirewalledNet, SparseMixed, Archetype(99)} {
		if a.String() == "" {
			t.Errorf("archetype %d has empty name", a)
		}
	}
}

func TestMixPick(t *testing.T) {
	m := Mix{Workplace: 1}
	for u := 0.0; u < 1.0; u += 0.1 {
		if got := m.pick(u); got != Workplace {
			t.Fatalf("pick(%g) = %v", u, got)
		}
	}
	if got := (Mix{}).pick(0.5); got != SparseMixed {
		t.Fatalf("empty mix should default to SparseMixed, got %v", got)
	}
	// Distribution roughly follows the weights.
	m = Mix{Workplace: 0.5, NATGateway: 0.5}
	w := 0
	n := 10000
	for i := 0; i < n; i++ {
		if m.pick(float64(i)/float64(n)) == Workplace {
			w++
		}
	}
	if frac := float64(w) / float64(n); frac < 0.45 || frac > 0.55 {
		t.Fatalf("Workplace fraction %.3f, want ~0.5", frac)
	}
}

func TestDefaultWorldSanity(t *testing.T) {
	regions := DefaultWorld()
	if len(regions) < 15 {
		t.Fatalf("atlas has only %d regions", len(regions))
	}
	codes := map[string]bool{}
	for _, r := range regions {
		if codes[r.Code] {
			t.Errorf("duplicate region code %s", r.Code)
		}
		codes[r.Code] = true
		if r.Weight <= 0 {
			t.Errorf("region %s has non-positive weight", r.Code)
		}
		if r.Mix.total() <= 0 {
			t.Errorf("region %s has empty mix", r.Code)
		}
	}
	for _, want := range []string{"CN", "CN-WUH", "CN-BEI", "IN-DEL", "AE", "SI", "US-LA", "MA"} {
		if !codes[want] {
			t.Errorf("atlas missing anchor region %s", want)
		}
	}
}

func TestAnchorRegionsPinPaperCells(t *testing.T) {
	regions := DefaultWorld()
	pl, err := PlaceBlocks(regions, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]map[CellKey]int{}
	for _, p := range pl {
		if cells[p.Region.Code] == nil {
			cells[p.Region.Code] = map[CellKey]int{}
		}
		cells[p.Region.Code][p.Cell]++
	}
	anchors := map[string]string{
		"CN-WUH": "(30N, 114E)",
		"CN-BEI": "(38N, 116E)",
		"IN-DEL": "(28N, 76E)",
		"AE":     "(24N, 54E)",
		"SI":     "(46N, 14E)",
	}
	for code, wantCell := range anchors {
		found := false
		for cell, n := range cells[code] {
			if cell.String() == wantCell && n > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("anchor %s produced no blocks in %s (got %v)", code, wantCell, cells[code])
		}
	}
}

func TestPlaceBlocksDeterministicAndBounded(t *testing.T) {
	regions := DefaultWorld()
	p1, err := PlaceBlocks(regions, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := PlaceBlocks(regions, 1000, 7)
	if len(p1) != len(p2) {
		t.Fatalf("placement count differs: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].Lat != p2[i].Lat || p1[i].Archetype != p2[i].Archetype || p1[i].Seed != p2[i].Seed {
			t.Fatalf("placement %d differs between runs", i)
		}
		r := p1[i].Region
		if math.Abs(p1[i].Lat-r.CenterLat) > r.SpanLat/2+1e-9 {
			t.Fatalf("placement %d latitude outside region %s", i, r.Code)
		}
		if math.Abs(p1[i].Lon-r.CenterLon) > r.SpanLon/2+1e-9 {
			t.Fatalf("placement %d longitude outside region %s", i, r.Code)
		}
	}
	p3, _ := PlaceBlocks(regions, 1000, 8)
	diff := false
	for i := range p1 {
		if p1[i].Lat != p3[i].Lat {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds should move placements")
	}
}

func TestPlaceBlocksErrors(t *testing.T) {
	if _, err := PlaceBlocks(DefaultWorld(), 0, 1); err == nil {
		t.Error("expected error for zero blocks")
	}
	if _, err := PlaceBlocks(nil, 10, 1); err == nil {
		t.Error("expected error for no regions")
	}
	if _, err := PlaceBlocks([]Region{{Code: "X", Weight: -1}}, 10, 1); err == nil {
		t.Error("expected error for negative weight")
	}
	if _, err := PlaceBlocks([]Region{{Code: "X", Weight: 0}}, 10, 1); err == nil {
		t.Error("expected error for all-zero weights")
	}
}

func TestPlaceBlocksProportionalToWeights(t *testing.T) {
	regions := []Region{
		{Code: "A", Weight: 0.8, SpanLat: 2, SpanLon: 2, Mix: Mix{Workplace: 1}},
		{Code: "B", Weight: 0.2, SpanLat: 2, SpanLon: 2, CenterLon: 50, Mix: Mix{Workplace: 1}},
	}
	pl, err := PlaceBlocks(regions, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, p := range pl {
		counts[p.Region.Code]++
	}
	if counts["A"] < 700 || counts["A"] > 900 {
		t.Fatalf("region A got %d of 1000, want ~800", counts["A"])
	}
}

func TestCoverageTable4Accounting(t *testing.T) {
	stats := map[CellKey]*CellStats{
		{0, 0}:  {Responsive: 100, ChangeSensitive: 20}, // represented
		{0, 1}:  {Responsive: 50, ChangeSensitive: 2},   // observed, under-represented
		{0, 2}:  {Responsive: 3, ChangeSensitive: 1},    // under-observed
		{0, 3}:  {Responsive: 0, ChangeSensitive: 0},    // not counted
		{10, 0}: {Responsive: 10, ChangeSensitive: 5},   // represented (boundary)
	}
	rep := Coverage(stats, 5, 5)
	if rep.Cells != 4 {
		t.Fatalf("cells = %d, want 4", rep.Cells)
	}
	if rep.UnderObserved != 1 || rep.Observed != 3 {
		t.Fatalf("observed split wrong: %+v", rep)
	}
	if rep.Represented != 2 || rep.UnderRepresented != 1 {
		t.Fatalf("represented split wrong: %+v", rep)
	}
	if rep.RespBlocks != 163 || rep.CSBlocks != 28 {
		t.Fatalf("block sums wrong: %+v", rep)
	}
	if rep.RespBlocksRepresented != 110 || rep.CSBlocksRepresented != 25 {
		t.Fatalf("represented sums wrong: %+v", rep)
	}
	if f := rep.RepresentedCellFraction(); math.Abs(f-2.0/3) > 1e-12 {
		t.Fatalf("represented fraction = %g", f)
	}
	if f := rep.RespBlockCoverage(); math.Abs(f-110.0/163) > 1e-12 {
		t.Fatalf("resp coverage = %g", f)
	}
	if f := rep.CSBlockCoverage(); math.Abs(f-25.0/28) > 1e-12 {
		t.Fatalf("cs coverage = %g", f)
	}
}

func TestCoverageEmpty(t *testing.T) {
	rep := Coverage(nil, 5, 5)
	if rep.Cells != 0 || rep.RepresentedCellFraction() != 0 || rep.RespBlockCoverage() != 0 || rep.CSBlockCoverage() != 0 {
		t.Fatalf("empty coverage should be zeros: %+v", rep)
	}
}

func TestThresholdCurveMonotone(t *testing.T) {
	stats := map[CellKey]*CellStats{}
	for i := 0; i < 50; i++ {
		stats[CellKey{0, i}] = &CellStats{Responsive: i + 1, ChangeSensitive: i / 2}
	}
	repFrac, obsFrac := ThresholdCurve(stats, 30)
	if len(repFrac) != 30 || len(obsFrac) != 30 {
		t.Fatal("curve lengths wrong")
	}
	for i := 1; i < 30; i++ {
		if repFrac[i] > repFrac[i-1]+1e-12 || obsFrac[i] > obsFrac[i-1]+1e-12 {
			t.Fatalf("curves must be non-increasing at %d", i)
		}
	}
	if obsFrac[0] != 1.0 {
		t.Fatalf("threshold 1 should accept every responsive cell, got %g", obsFrac[0])
	}
	r2, o2 := ThresholdCurve(nil, 5)
	for i := range r2 {
		if r2[i] != 0 || o2[i] != 0 {
			t.Fatal("empty stats should give zero curves")
		}
	}
}
