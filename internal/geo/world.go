package geo

import (
	"fmt"
	"math"

	"github.com/diurnalnet/diurnal/internal/netsim"
)

const (
	saltLat    uint64 = 0x9e01
	saltLon    uint64 = 0x9e02
	saltMix    uint64 = 0x9e03
	saltSee    uint64 = 0x9e04
	saltRad    uint64 = 0x9e05
	saltHotLat uint64 = 0x9e06
	saltHotLon uint64 = 0x9e07
)

// hotspotCount scales the number of population centers with region area:
// city-scale anchors get one, continental regions up to nine.
func hotspotCount(r *Region) int {
	n := 1 + int(math.Sqrt(r.SpanLat*r.SpanLon)/3)
	if n > 9 {
		n = 9
	}
	return n
}

// zipfPick maps a uniform u to a hotspot rank with probability
// proportional to 1/(rank+1).
func zipfPick(u float64, n int) int {
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / float64(k+1)
	}
	u *= total
	for k := 0; k < n; k++ {
		w := 1 / float64(k+1)
		if u < w {
			return k
		}
		u -= w
	}
	return n - 1
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// DefaultWorld returns the synthetic atlas. Region weights and archetype
// mixes approximate Figure 7's observed distribution of change-sensitive
// blocks: best coverage in Asia, moderate in Europe and North America
// (where always-on NAT hides users), sparse in South America and Africa
// with Morocco over-represented. City-scale anchor regions pin the exact
// gridcells the paper studies (Wuhan, Beijing, Shanghai, New Delhi, the
// UAE, Slovenia, Los Angeles, Indiana).
func DefaultWorld() []Region {
	// Mixes are tuned so the world-wide filter cascade matches Table 2's
	// shape: roughly half of routed blocks are unresponsive (firewalls),
	// under 10% of responsive blocks are diurnal, and 3–8% end up
	// change-sensitive, concentrated in Asia and the diurnal-rich city
	// anchors the paper studies.
	diurnalHeavy := Mix{Workplace: 0.04, HomePublic: 0.055, NATGateway: 0.24, ServerFarm: 0.07, FirewalledNet: 0.42, SparseMixed: 0.175}
	natHeavy := Mix{Workplace: 0.008, HomePublic: 0.008, NATGateway: 0.318, ServerFarm: 0.12, FirewalledNet: 0.42, SparseMixed: 0.126}
	moderate := Mix{Workplace: 0.02, HomePublic: 0.03, NATGateway: 0.29, ServerFarm: 0.10, FirewalledNet: 0.41, SparseMixed: 0.15}
	campus := Mix{Workplace: 0.22, HomePublic: 0.02, NATGateway: 0.10, ServerFarm: 0.23, FirewalledNet: 0.33, SparseMixed: 0.10}
	cityDiurnal := Mix{Workplace: 0.26, HomePublic: 0.24, NATGateway: 0.14, ServerFarm: 0.08, FirewalledNet: 0.18, SparseMixed: 0.10}

	return []Region{
		// — Asia: the densest change-sensitive population.
		{Code: "CN", Name: "China", Continent: Asia, CenterLat: 33, CenterLon: 108, SpanLat: 22, SpanLon: 30, TZOffset: 8 * 3600, Weight: 0.26, Mix: diurnalHeavy},
		{Code: "CN-WUH", Name: "Wuhan", Continent: Asia, CenterLat: 30.9, CenterLon: 114.9, SpanLat: 1.0, SpanLon: 1.0, TZOffset: 8 * 3600, Weight: 0.020, Mix: cityDiurnal},
		{Code: "CN-BEI", Name: "Beijing", Continent: Asia, CenterLat: 39.0, CenterLon: 117.0, SpanLat: 1.0, SpanLon: 1.0, TZOffset: 8 * 3600, Weight: 0.030, Mix: cityDiurnal},
		{Code: "CN-SHA", Name: "Shanghai", Continent: Asia, CenterLat: 31.0, CenterLon: 121.0, SpanLat: 1.0, SpanLon: 1.0, TZOffset: 8 * 3600, Weight: 0.032, Mix: cityDiurnal},
		{Code: "IN", Name: "India", Continent: Asia, CenterLat: 21, CenterLon: 78, SpanLat: 14, SpanLon: 14, TZOffset: 5*3600 + 1800, Weight: 0.07, Mix: diurnalHeavy},
		{Code: "IN-DEL", Name: "New Delhi", Continent: Asia, CenterLat: 28.9, CenterLon: 77.0, SpanLat: 1.0, SpanLon: 1.0, TZOffset: 5*3600 + 1800, Weight: 0.018, Mix: cityDiurnal},
		{Code: "SEA", Name: "Southeast Asia", Continent: Asia, CenterLat: 8, CenterLon: 108, SpanLat: 16, SpanLon: 22, TZOffset: 8 * 3600, Weight: 0.07, Mix: diurnalHeavy},
		{Code: "JPKR", Name: "Japan and Korea", Continent: Asia, CenterLat: 36, CenterLon: 134, SpanLat: 8, SpanLon: 12, TZOffset: 9 * 3600, Weight: 0.06, Mix: moderate},
		{Code: "RU", Name: "Russia", Continent: Europe, CenterLat: 56, CenterLon: 44, SpanLat: 8, SpanLon: 28, TZOffset: 3 * 3600, Weight: 0.06, Mix: diurnalHeavy},
		{Code: "AE", Name: "United Arab Emirates", Continent: Asia, CenterLat: 24.9, CenterLon: 54.9, SpanLat: 1.0, SpanLon: 1.0, TZOffset: 4 * 3600, Weight: 0.020, Mix: cityDiurnal},
		// — Europe.
		{Code: "EU-W", Name: "Western Europe", Continent: Europe, CenterLat: 49, CenterLon: 4, SpanLat: 12, SpanLon: 16, TZOffset: 1 * 3600, Weight: 0.12, Mix: natHeavy},
		{Code: "EU-E", Name: "Eastern Europe", Continent: Europe, CenterLat: 50, CenterLon: 24, SpanLat: 10, SpanLon: 12, TZOffset: 2 * 3600, Weight: 0.06, Mix: diurnalHeavy},
		{Code: "SI", Name: "Slovenia", Continent: Europe, CenterLat: 46.9, CenterLon: 14.9, SpanLat: 1.0, SpanLon: 1.0, TZOffset: 1 * 3600, Weight: 0.012, Mix: cityDiurnal},
		// — North America.
		{Code: "US-W", Name: "US West", Continent: NorthAmerica, CenterLat: 39, CenterLon: -115, SpanLat: 12, SpanLon: 16, TZOffset: -8 * 3600, Weight: 0.06, Mix: natHeavy},
		{Code: "US-E", Name: "US East", Continent: NorthAmerica, CenterLat: 39, CenterLon: -83, SpanLat: 12, SpanLon: 18, TZOffset: -5 * 3600, Weight: 0.08, Mix: natHeavy},
		{Code: "US-LA", Name: "Los Angeles campus", Continent: NorthAmerica, CenterLat: 34.5, CenterLon: -117.1, SpanLat: 1.0, SpanLon: 1.0, TZOffset: -8 * 3600, Weight: 0.008, Mix: campus},
		{Code: "US-IN", Name: "Indiana campus", Continent: NorthAmerica, CenterLat: 39.0, CenterLon: -85.0, SpanLat: 1.0, SpanLon: 1.0, TZOffset: -5 * 3600, Weight: 0.006, Mix: campus},
		// — South America.
		{Code: "BR", Name: "Brazil", Continent: SouthAmerica, CenterLat: -15, CenterLon: -52, SpanLat: 16, SpanLon: 16, TZOffset: -3 * 3600, Weight: 0.05, Mix: moderate},
		{Code: "SA-W", Name: "Andean South America", Continent: SouthAmerica, CenterLat: -12, CenterLon: -72, SpanLat: 14, SpanLon: 8, TZOffset: -5 * 3600, Weight: 0.02, Mix: natHeavy},
		// — Africa.
		{Code: "MA", Name: "Morocco", Continent: Africa, CenterLat: 32, CenterLon: -7, SpanLat: 4, SpanLon: 6, TZOffset: 0, Weight: 0.03, Mix: diurnalHeavy},
		{Code: "AF-N", Name: "North Africa", Continent: Africa, CenterLat: 30, CenterLon: 12, SpanLat: 6, SpanLon: 20, TZOffset: 1 * 3600, Weight: 0.015, Mix: moderate},
		{Code: "AF-S", Name: "Sub-Saharan Africa", Continent: Africa, CenterLat: -5, CenterLon: 22, SpanLat: 20, SpanLon: 20, TZOffset: 2 * 3600, Weight: 0.012, Mix: natHeavy},
		// — Oceania.
		{Code: "OC", Name: "Oceania", Continent: Oceania, CenterLat: -28, CenterLon: 140, SpanLat: 12, SpanLon: 20, TZOffset: 10 * 3600, Weight: 0.025, Mix: natHeavy},
	}
}

// PlaceBlocks deterministically scatters totalBlocks /24 placements over
// the regions, proportionally to their weights. Each placement gets a
// position inside its region, a gridcell, an archetype drawn from the
// region's mix, and a per-block seed.
func PlaceBlocks(regions []Region, totalBlocks int, seed uint64) ([]Placement, error) {
	if totalBlocks <= 0 {
		return nil, fmt.Errorf("geo: totalBlocks %d must be positive", totalBlocks)
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("geo: no regions")
	}
	sumW := 0.0
	for _, r := range regions {
		if r.Weight < 0 {
			return nil, fmt.Errorf("geo: region %s has negative weight", r.Code)
		}
		sumW += r.Weight
	}
	if sumW == 0 {
		return nil, fmt.Errorf("geo: all region weights are zero")
	}
	placements := make([]Placement, 0, totalBlocks)
	idx := 0
	for ri := range regions {
		r := &regions[ri]
		n := int(float64(totalBlocks)*r.Weight/sumW + 0.5)
		if n == 0 && r.Weight > 0 {
			n = 1
		}
		// Address density is heavy-tailed: blocks cluster around a few
		// population hotspots per region (cities), with a Zipf-like rank
		// distribution, so per-gridcell block counts vary by orders of
		// magnitude as in the paper's Figure 7.
		nHot := hotspotCount(r)
		for i := 0; i < n && idx < totalBlocks; i++ {
			h := zipfPick(netsim.HashUnit(seed, uint64(ri), uint64(i), saltRad), nHot)
			hotLat := r.CenterLat + (netsim.HashUnit(seed, uint64(ri), uint64(h), saltHotLat)-0.5)*r.SpanLat*0.8
			hotLon := r.CenterLon + (netsim.HashUnit(seed, uint64(ri), uint64(h), saltHotLon)-0.5)*r.SpanLon*0.8
			lat := clamp(hotLat+(netsim.HashUnit(seed, uint64(ri), uint64(i), saltLat)-0.5)*1.0,
				r.CenterLat-r.SpanLat/2, r.CenterLat+r.SpanLat/2)
			lon := clamp(hotLon+(netsim.HashUnit(seed, uint64(ri), uint64(i), saltLon)-0.5)*1.0,
				r.CenterLon-r.SpanLon/2, r.CenterLon+r.SpanLon/2)
			placements = append(placements, Placement{
				Index:     idx,
				Region:    r,
				Lat:       lat,
				Lon:       lon,
				Cell:      CellOf(lat, lon),
				Archetype: r.Mix.pick(netsim.HashUnit(seed, uint64(ri), uint64(i), saltMix)),
				Seed:      netsim.Hash64(seed, uint64(idx), saltSee),
			})
			idx++
		}
	}
	return placements, nil
}

// CellStats accumulates per-gridcell block counts for coverage analysis.
type CellStats struct {
	Responsive      int
	ChangeSensitive int
	Continent       Continent
}

// CoverageReport reproduces the structure of Table 4.
type CoverageReport struct {
	// Cells is the number of gridcells with at least one responsive block.
	Cells int
	// UnderObserved cells have fewer than MinObserved responsive blocks;
	// Observed cells have at least that many.
	UnderObserved, Observed int
	// Of the observed cells, Represented have at least MinRepresented
	// change-sensitive blocks; UnderRepresented do not.
	UnderRepresented, Represented int

	// Block-weighted sums (the "blks-sum" columns).
	CSBlocks, RespBlocks                       int
	CSBlocksObserved, RespBlocksObserved       int
	CSBlocksRepresented, RespBlocksRepresented int

	MinObserved, MinRepresented int
}

// RepresentedCellFraction is the fraction of observed cells that are
// represented (the paper's 60%).
func (r CoverageReport) RepresentedCellFraction() float64 {
	if r.Observed == 0 {
		return 0
	}
	return float64(r.Represented) / float64(r.Observed)
}

// RespBlockCoverage is the fraction of all responsive blocks that live in
// represented cells (the paper's 98.5%).
func (r CoverageReport) RespBlockCoverage() float64 {
	if r.RespBlocks == 0 {
		return 0
	}
	return float64(r.RespBlocksRepresented) / float64(r.RespBlocks)
}

// CSBlockCoverage is the fraction of change-sensitive blocks in
// represented cells (the paper's 99.7%).
func (r CoverageReport) CSBlockCoverage() float64 {
	if r.CSBlocks == 0 {
		return 0
	}
	return float64(r.CSBlocksRepresented) / float64(r.CSBlocks)
}

// Coverage computes the Table 4 accounting over per-cell stats with the
// given thresholds (the paper uses 5 and 5).
func Coverage(stats map[CellKey]*CellStats, minRepresented, minObserved int) CoverageReport {
	rep := CoverageReport{MinObserved: minObserved, MinRepresented: minRepresented}
	for _, s := range stats {
		if s.Responsive == 0 {
			continue
		}
		rep.Cells++
		rep.CSBlocks += s.ChangeSensitive
		rep.RespBlocks += s.Responsive
		if s.Responsive < minObserved {
			rep.UnderObserved++
			continue
		}
		rep.Observed++
		rep.CSBlocksObserved += s.ChangeSensitive
		rep.RespBlocksObserved += s.Responsive
		if s.ChangeSensitive >= minRepresented {
			rep.Represented++
			rep.CSBlocksRepresented += s.ChangeSensitive
			rep.RespBlocksRepresented += s.Responsive
		} else {
			rep.UnderRepresented++
		}
	}
	return rep
}

// ThresholdCurve returns, for each threshold value 1..max, the fraction of
// cells accepted when requiring that many change-sensitive blocks
// (represented) and that many responsive blocks (observed) — the two CDFs
// of the paper's Figure 14.
func ThresholdCurve(stats map[CellKey]*CellStats, max int) (represented, observed []float64) {
	totalWithResp := 0
	for _, s := range stats {
		if s.Responsive > 0 {
			totalWithResp++
		}
	}
	represented = make([]float64, max)
	observed = make([]float64, max)
	if totalWithResp == 0 {
		return represented, observed
	}
	for th := 1; th <= max; th++ {
		nRep, nObs := 0, 0
		for _, s := range stats {
			if s.Responsive == 0 {
				continue
			}
			if s.ChangeSensitive >= th {
				nRep++
			}
			if s.Responsive >= th {
				nObs++
			}
		}
		represented[th-1] = float64(nRep) / float64(totalWithResp)
		observed[th-1] = float64(nObs) / float64(totalWithResp)
	}
	return represented, observed
}
