// Package experiments regenerates every table and figure of the paper's
// evaluation (§3–§4, appendices) on the simulated substrate. Each
// experiment is a pure function of its options (all randomness is seeded),
// returns a typed result with a text rendering, and is exercised by a
// bench target in the repository root. Experiments measure the kernel that
// ships: every records → series step is core.Config.Reconstruct (through
// reconstructBlock), and the probing measurements the kernel has no use
// for — full-block-scan times and reply rates — live here, on the kernel's
// cursor.
//
// Scale note: the paper measures 5.2M /24 blocks over up to 24 weeks; the
// defaults here use 10²–10³ blocks so a full run finishes in seconds.
// Results are therefore reported as fractions and orderings (who wins, by
// roughly what factor, where crossovers fall), not absolute counts.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/diurnalnet/diurnal/internal/blockclass"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
)

// Options is the shared experiment scale knob.
type Options struct {
	// Blocks scales the world size; zero takes each experiment's default.
	Blocks int
	// Seed drives all randomness (default 1).
	Seed uint64
	// Ctx, when non-nil, cancels long experiment runs early.
	Ctx context.Context
}

func (o Options) blocks(def int) int {
	if o.Blocks > 0 {
		return o.Blocks
	}
	return def
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) seed() uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

// parallelEach runs fn(i) for i in [0, n) on all CPUs.
func parallelEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// classification is a compact per-block classification outcome.
type classification struct {
	responsive bool
	diurnal    bool
	wideSwing  bool
	sensitive  bool
}

// scratches backs reconstructBlock, as core.Config.AnalyzeBlock's pool
// backs it: experiments reconstruct from many goroutines, each block on a
// warm Scratch.
var scratches = sync.Pool{New: func() any { return core.NewScratch() }}

// reconstructBlock is every experiment's records → Series step: the front
// half of the kernel the pipeline runs (core.Config.Reconstruct), under the
// paper's configuration for the window [start, end) with 1-loss repair on
// or off.
func reconstructBlock(perObs [][]probe.Record, eb []int, start, end int64, repair bool) (*reconstruct.Series, error) {
	cfg := core.DefaultConfig(start, end)
	cfg.Repair = repair
	sc := scratches.Get().(*core.Scratch)
	defer scratches.Put(sc)
	series, _, err := cfg.Reconstruct(perObs, eb, sc)
	return series, err
}

// classifyBlock reconstructs a block's streams (reconstructBlock) and
// classifies its change sensitivity over the same window.
func classifyBlock(perObs [][]probe.Record, eb []int, start, end int64, repair bool, cfg blockclass.Config) (blockclass.Result, error) {
	series, err := reconstructBlock(perObs, eb, start, end, repair)
	if err != nil {
		return blockclass.Result{}, err
	}
	return blockclass.Classify(series, start, end, cfg)
}

// ScanTimes returns the durations of successive complete scans of eb by
// the observers together (§3.1): the first value is the time from the
// first record until every address has been seen once, and each subsequent
// value is the time to see every address again. It walks the streams in
// merged order with the kernel's cursor, so no merged stream is built.
// Blocks never fully covered yield nil.
func ScanTimes(perObs [][]probe.Record, eb []int) []int64 {
	var inEB [256]bool
	targets := 0
	for _, a := range eb {
		if a < 0 || a > 255 {
			return nil // no record can carry it, so no scan completes
		}
		if !inEB[a] {
			inEB[a] = true
			targets++
		}
	}
	cur := reconstruct.Cursor{Dedup: true}
	cur.Reset(perObs, nil)
	run := cur.Next()
	if run == nil || targets == 0 {
		return nil
	}
	var out []int64
	var seen [256]bool
	scanStart, left := run[0].T, targets
	for ; run != nil; run = cur.Next() {
		for _, r := range run {
			if !inEB[r.Addr] || seen[r.Addr] {
				continue
			}
			seen[r.Addr] = true
			if left--; left == 0 {
				out = append(out, r.T-scanStart)
				seen, left, scanStart = [256]bool{}, targets, r.T
			}
		}
	}
	return out
}

// medianScan returns the middle of a block's full-scan durations, the upper
// one of an even count. A block that never completed a scan of E(b) counts
// as the whole window: its scans take at least that long.
func medianScan(scans []int64, window int64) int64 {
	if len(scans) == 0 {
		return window
	}
	sorted := slices.Clone(scans)
	slices.Sort(sorted)
	return sorted[len(sorted)/2]
}

// meanReplyRate returns the fraction of the streams' records that
// answered — with repair set, as 1-loss repair leaves them — the quantity
// Figure 6d compares across observers, from the kernel's per-stream tally
// (reconstruct.Repairer.Tally). It returns 0 for no records.
func meanReplyRate(streams [][]probe.Record, repair bool) float64 {
	records, responsive := 0, 0
	var flips reconstruct.Flips
	for _, s := range streams {
		var rp reconstruct.Repairer
		up, _, _ := rp.Tally(s, repair, len(s), &flips)
		records, responsive = records+len(s), responsive+up
	}
	if records == 0 {
		return 0
	}
	return float64(responsive) / float64(records)
}

// classifyWorld probes every block over [start,end) with the engine and
// classifies change sensitivity over the same window, in parallel.
func classifyWorld(world []*dataset.WorldBlock, eng *probe.Engine, start, end int64, cfg blockclass.Config) []classification {
	out := make([]classification, len(world))
	parallelEach(len(world), func(i int) {
		wb := world[i]
		eb := wb.EverActive()
		if len(eb) == 0 {
			return
		}
		perObs, err := eng.Collect(wb.Block, start, end)
		if err != nil {
			return
		}
		res, err := classifyBlock(perObs, eb, start, end, true, cfg)
		if err != nil {
			return
		}
		out[i] = classOf(res)
	})
	return out
}

func classOf(r blockclass.Result) classification {
	return classification{responsive: r.Responsive, diurnal: r.Diurnal, wideSwing: r.WideSwing, sensitive: r.ChangeSensitive}
}

// counts tallies a classification slice into Table 2 style rows.
type counts struct {
	Routed, NotResponsive, Responsive   int
	Diurnal, NotDiurnal                 int
	WideSwing, NarrowSwing              int
	ChangeSensitive, NotChangeSensitive int
}

func tally(cls []classification) counts {
	var c counts
	c.Routed = len(cls)
	for _, r := range cls {
		if !r.responsive {
			c.NotResponsive++
			continue
		}
		c.Responsive++
		if r.diurnal {
			c.Diurnal++
		} else {
			c.NotDiurnal++
		}
		if r.wideSwing {
			c.WideSwing++
		} else {
			c.NarrowSwing++
		}
		if r.sensitive {
			c.ChangeSensitive++
		} else {
			c.NotChangeSensitive++
		}
	}
	return c
}

// intersect combines two classifications the way the paper intersects
// quarters into half-years (§3.4): a block passes a filter over the long
// window only if it passes in both halves.
func intersect(a, b []classification) []classification {
	out := make([]classification, len(a))
	for i := range a {
		out[i] = classification{
			responsive: a[i].responsive || b[i].responsive,
			diurnal:    a[i].diurnal && b[i].diurnal,
			wideSwing:  a[i].wideSwing && b[i].wideSwing,
			sensitive:  a[i].sensitive && b[i].sensitive,
		}
	}
	return out
}

// table renders labeled rows of equal length as fixed-width text.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	writeRow(dashes(widths))
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func pct(num, den int) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}

// sortedKeys returns map keys in a deterministic order for rendering.
func sortedKeys[K comparable, V any](m map[K]V, less func(a, b K) bool) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	return keys
}

// lossyChinaBlocks marks the destinations that observer w reaches over a
// congested link: about a quarter of Chinese blocks (§3.3).
func lossyChinaBlocks(world []*dataset.WorldBlock) func(id netsim.BlockID) bool {
	lossy := map[netsim.BlockID]bool{}
	for _, wb := range world {
		if strings.HasPrefix(wb.Place.Region.Code, "CN") &&
			wb.Place.Seed%4 == 0 {
			lossy[wb.ID] = true
		}
	}
	return func(id netsim.BlockID) bool { return lossy[id] }
}
