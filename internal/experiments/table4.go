package experiments

import (
	"fmt"
	"time"

	"github.com/diurnalnet/diurnal/internal/blockclass"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/render"
)

// Table4Result reproduces Table 4 (geographic coverage of human-activity
// change detection) and carries the per-cell stats that Figure 7 and
// Figure 14 reuse.
type Table4Result struct {
	// Report uses the paper's literal thresholds (>= 5 change-sensitive /
	// >= 5 responsive blocks per cell). Those thresholds presume the
	// paper's density of ~2,400 responsive blocks per observed cell; at
	// simulation scale ScaledReport applies the same thresholds scaled by
	// the blocks-per-cell ratio (ScaledThreshold), which is the
	// apples-to-apples comparison for the 60%-of-cells / 98.5%-of-blocks
	// claims.
	Report          geo.CoverageReport
	ScaledReport    geo.CoverageReport
	ScaledThreshold int
	Cells           map[geo.CellKey]*geo.CellStats
	// ByContinent counts change-sensitive blocks per continent (Figure 7's
	// qualitative story: Asia densest).
	ByContinent map[geo.Continent]int
}

// Table4 classifies a world over the 2020m1 window and accounts coverage
// with the paper's thresholds (>= 5 change-sensitive blocks for a
// represented cell, >= 5 responsive blocks for an observed cell).
func Table4(opts Options) (*Table4Result, error) {
	nBlocks := opts.blocks(1500)
	start := netsim.Date(2020, time.January, 1)
	end := netsim.Date(2020, time.January, 29)
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   nBlocks,
		Seed:     opts.seed() + 9,
		Calendar: events.Year2020(),
		Start:    start,
		End:      end,
	})
	if err != nil {
		return nil, err
	}
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}
	cls := classifyWorld(world, eng, start, end, blockclass.Default())

	cells := map[geo.CellKey]*geo.CellStats{}
	byCont := map[geo.Continent]int{}
	for i, wb := range world {
		st := cells[wb.Place.Cell]
		if st == nil {
			st = &geo.CellStats{Continent: wb.Place.Region.Continent}
			cells[wb.Place.Cell] = st
		}
		if cls[i].responsive {
			st.Responsive++
		}
		if cls[i].sensitive {
			st.ChangeSensitive++
			byCont[wb.Place.Region.Continent]++
		}
	}
	res := &Table4Result{
		Report:      geo.Coverage(cells, 5, 5),
		Cells:       cells,
		ByContinent: byCont,
	}
	// Scale the thresholds by blocks-per-observed-cell relative to the
	// paper's density (5.17M responsive blocks over 2,186 observed cells).
	const paperDensity = 2365.0
	density := 0.0
	nCells := 0
	for _, st := range cells {
		if st.Responsive > 0 {
			density += float64(st.Responsive)
			nCells++
		}
	}
	if nCells > 0 {
		density /= float64(nCells)
	}
	res.ScaledThreshold = int(5*density/paperDensity + 0.5)
	if res.ScaledThreshold < 1 {
		res.ScaledThreshold = 1
	}
	res.ScaledReport = geo.Coverage(cells, res.ScaledThreshold, res.ScaledThreshold)
	return res, nil
}

// String renders the Table 4 accounting.
func (r *Table4Result) String() string {
	rep := r.Report
	t := &table{header: []string{"row", "gridcells", "", "C-S blks-sum", "", "ping-resp. blks-sum", ""}}
	t.add("all", itoa(rep.Cells), "", itoa(rep.CSBlocks), "", itoa(rep.RespBlocks), "100%")
	t.add("under-observed", itoa(rep.UnderObserved), "", "", "", itoa(rep.RespBlocks-rep.RespBlocksObserved), pct(rep.RespBlocks-rep.RespBlocksObserved, rep.RespBlocks))
	t.add("observed", itoa(rep.Observed), "100%", itoa(rep.CSBlocksObserved), "100%", itoa(rep.RespBlocksObserved), "100%")
	t.add("under-represented", itoa(rep.UnderRepresented), pct(rep.UnderRepresented, rep.Observed),
		itoa(rep.CSBlocksObserved-rep.CSBlocksRepresented), pct(rep.CSBlocksObserved-rep.CSBlocksRepresented, rep.CSBlocksObserved),
		itoa(rep.RespBlocksObserved-rep.RespBlocksRepresented), pct(rep.RespBlocksObserved-rep.RespBlocksRepresented, rep.RespBlocksObserved))
	t.add("represented", itoa(rep.Represented), pct(rep.Represented, rep.Observed),
		itoa(rep.CSBlocksRepresented), pct(rep.CSBlocksRepresented, rep.CSBlocksObserved),
		itoa(rep.RespBlocksRepresented), pct(rep.RespBlocksRepresented, rep.RespBlocksObserved))
	sr := r.ScaledReport
	return fmt.Sprintf("Table 4 — geographic coverage (paper: 60%% of cells represented, 98.5%%/99.7%% block-weighted)\n%s"+
		"scale-adjusted thresholds (%d blocks/cell): %.0f%%%% of observed cells represented; "+
		"block-weighted coverage %.1f%%%% of responsive, %.1f%%%% of change-sensitive\n",
		t, r.ScaledThreshold, 100*sr.RepresentedCellFraction(),
		100*sr.RespBlockCoverage(), 100*sr.CSBlockCoverage())
}

// Figure7Result summarizes where change-sensitive blocks are (the paper's
// world map, rendered as per-continent and top-cell counts).
type Figure7Result struct {
	ByContinent map[geo.Continent]int
	TopCells    []Figure7Cell
	// AllCells holds every cell with at least one change-sensitive block,
	// for map rendering.
	AllCells []Figure7Cell
}

// Figure7Cell is one gridcell's change-sensitive count.
type Figure7Cell struct {
	Cell  geo.CellKey
	Count int
}

// Figure7 derives the geographic distribution from a Table 4 run.
func Figure7(opts Options) (*Figure7Result, error) {
	t4, err := Table4(opts)
	if err != nil {
		return nil, err
	}
	res := &Figure7Result{ByContinent: t4.ByContinent}
	keys := sortedKeys(t4.Cells, func(a, b geo.CellKey) bool {
		ca, cb := t4.Cells[a].ChangeSensitive, t4.Cells[b].ChangeSensitive
		if ca != cb {
			return ca > cb
		}
		if a.Lat != b.Lat {
			return a.Lat < b.Lat
		}
		return a.Lon < b.Lon
	})
	for _, k := range keys {
		if t4.Cells[k].ChangeSensitive == 0 {
			continue
		}
		cell := Figure7Cell{Cell: k, Count: t4.Cells[k].ChangeSensitive}
		res.AllCells = append(res.AllCells, cell)
		if len(res.TopCells) < 15 {
			res.TopCells = append(res.TopCells, cell)
		}
	}
	return res, nil
}

// String renders the distribution with a world map.
func (r *Figure7Result) String() string {
	t := &table{header: []string{"continent", "change-sensitive blocks"}}
	for _, c := range geo.Continents() {
		t.add(c.String(), itoa(r.ByContinent[c]))
	}
	t2 := &table{header: []string{"gridcell", "change-sensitive blocks"}}
	for _, c := range r.TopCells {
		t2.add(c.Cell.String(), itoa(c.Count))
	}
	values := map[geo.CellKey]int{}
	for _, c := range r.AllCells {
		values[c.Cell] = c.Count
	}
	return fmt.Sprintf("Figure 7 — where change-sensitive blocks are\n%s\ntop gridcells:\n%s\n%s",
		t, t2, render.WorldMap(values))
}

// Figure14Result is the gridcell-threshold sensitivity study.
type Figure14Result struct {
	Thresholds  []int
	Represented []float64
	Observed    []float64
}

// Figure14 sweeps the represented/observed thresholds 1..max over the
// Table 4 cell stats (Appendix D).
func Figure14(opts Options) (*Figure14Result, error) {
	t4, err := Table4(opts)
	if err != nil {
		return nil, err
	}
	const max = 40
	rep, obs := geo.ThresholdCurve(t4.Cells, max)
	res := &Figure14Result{}
	for th := 1; th <= max; th++ {
		res.Thresholds = append(res.Thresholds, th)
		res.Represented = append(res.Represented, rep[th-1])
		res.Observed = append(res.Observed, obs[th-1])
	}
	return res, nil
}

// String renders selected points of the curves.
func (r *Figure14Result) String() string {
	t := &table{header: []string{"threshold", "frac represented cells", "frac observed cells"}}
	for i, th := range r.Thresholds {
		if th <= 10 || th%5 == 0 {
			t.add(itoa(th), fmt.Sprintf("%.3f", r.Represented[i]), fmt.Sprintf("%.3f", r.Observed[i]))
		}
	}
	return fmt.Sprintf("Figure 14 — sensitivity of coverage to gridcell thresholds\n%s", t)
}
