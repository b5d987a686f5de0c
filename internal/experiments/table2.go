package experiments

import (
	"fmt"
	"time"

	"github.com/diurnalnet/diurnal/internal/blockclass"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/netsim"
)

// Table2Result reproduces Table 2: blocks before and after each filtering
// stage across dataset windows and observer sets.
type Table2Result struct {
	Datasets []string
	Counts   map[string]counts
	Blocks   int
}

// Table2 runs the block-filtering census over the paper's dataset grid:
// one-site quarters (2019q4-w, 2020q1-w, 2020q2-w), the one-site month and
// half (2020m1-w, 2020h1-w as the intersection of the two quarters), and
// the four-site month and half (2020m1-ejnw, 2020h1-ejnw).
func Table2(opts Options) (*Table2Result, error) {
	nBlocks := opts.blocks(600)
	// One world spans late 2019 through mid 2020 with the 2020 calendar.
	start2019q4 := netsim.Date(2019, time.October, 1)
	end2020h1 := netsim.Date(2020, time.July, 1)
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   nBlocks,
		Seed:     opts.seed(),
		Calendar: events.Year2020(),
		Start:    start2019q4,
		End:      end2020h1,
	})
	if err != nil {
		return nil, err
	}
	cfg := blockclass.Default()
	lossy := lossyChinaBlocks(world)

	run := func(name string) ([]classification, error) {
		spec, err := dataset.FindSpec(name)
		if err != nil {
			return nil, err
		}
		eng, err := dataset.EngineFor(spec, lossy)
		if err != nil {
			return nil, err
		}
		return classifyWorld(world, eng, spec.Start, spec.End(), cfg), nil
	}

	res := &Table2Result{Counts: map[string]counts{}, Blocks: len(world)}
	cls := map[string][]classification{}
	for _, name := range []string{"2019q4-w", "2020q1-w", "2020q2-w", "2020m1-w", "2020m1-ejnw", "2020q1-ejnw", "2020q2-ejnw"} {
		c, err := run(name)
		if err != nil {
			return nil, err
		}
		cls[name] = c
	}
	// Half-year sets are the intersections of their quarters (§3.4).
	cls["2020h1-w"] = intersect(cls["2020q1-w"], cls["2020q2-w"])
	cls["2020h1-ejnw"] = intersect(cls["2020q1-ejnw"], cls["2020q2-ejnw"])

	res.Datasets = []string{
		"2019q4-w", "2020q1-w", "2020q2-w", "2020h1-w",
		"2020m1-w", "2020h1-ejnw", "2020m1-ejnw",
	}
	for _, name := range res.Datasets {
		res.Counts[name] = tally(cls[name])
	}
	return res, nil
}

// String renders the table in the paper's row order.
func (r *Table2Result) String() string {
	t := &table{header: append([]string{"row"}, r.Datasets...)}
	row := func(label string, get func(c counts) int) {
		cells := []string{label}
		for _, name := range r.Datasets {
			cells = append(cells, itoa(get(r.Counts[name])))
		}
		t.add(cells...)
	}
	row("routed blocks", func(c counts) int { return c.Routed })
	row("not responsive", func(c counts) int { return c.NotResponsive })
	row("responsive", func(c counts) int { return c.Responsive })
	row("not diurnal", func(c counts) int { return c.NotDiurnal })
	row("diurnal", func(c counts) int { return c.Diurnal })
	row("narrow swing", func(c counts) int { return c.NarrowSwing })
	row("wide swing", func(c counts) int { return c.WideSwing })
	row("not change-sensitive", func(c counts) int { return c.NotChangeSensitive })
	row("change-sensitive", func(c counts) int { return c.ChangeSensitive })
	return fmt.Sprintf("Table 2 — blocks before and after filtering (%d simulated /24s)\n%s", r.Blocks, t)
}

// SensitiveFraction returns the change-sensitive share of responsive
// blocks for a dataset (the paper's 3.3–6.4%).
func (r *Table2Result) SensitiveFraction(name string) float64 {
	c := r.Counts[name]
	if c.Responsive == 0 {
		return 0
	}
	return float64(c.ChangeSensitive) / float64(c.Responsive)
}
