package main

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/diurnalnet/diurnal"
	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/render"
)

// day formats a Unix time as its UTC date.
func day(t int64) string { return time.Unix(t, 0).UTC().Format("2006-01-02") }

// print renders a finished scan, daemon or merge run and returns the exit
// code its report calls for: the optional archive and markdown report,
// the summary, the supervisor and integrity sections, then either one
// region's per-block detections or the world map with each top gridcell's
// peak days.
func (j *job) print(world *diurnal.World, report *diurnal.Report, began time.Time) int {
	if n := report.Report.ResumedBlocks; j.resume != "" && n > 0 {
		fmt.Printf("resumed %d finished blocks from %s\n", n, j.resume)
	}
	if n := len(report.Report.DeadLettered); n > 0 {
		fmt.Printf("skipped %d dead-lettered poison blocks (quarantined with fault context)\n", n)
	}
	start, end := j.world.Start, j.world.End
	if j.save != "" {
		if err := saveObservations(j.save, world, start, end); err != nil {
			fmt.Fprintln(os.Stderr, "saving observations:", err)
			return exitError
		}
		fmt.Printf("raw observations archived to %s\n", j.save)
	}
	if j.report != "" {
		if err := writeMarkdownReport(j.report, world, report, start, end); err != nil {
			fmt.Fprintln(os.Stderr, "writing report:", err)
			return exitError
		}
		fmt.Printf("markdown report written to %s\n", j.report)
	}

	fmt.Printf("simulated %d /24 blocks over %s .. %s with %d observers (%.1fs)\n",
		world.Size(), day(start), day(end), j.world.Observers, time.Since(began).Seconds())
	fmt.Printf("responsive: %d   change-sensitive: %d   gridcells: %d\n\n",
		responsive(report), report.ChangeSensitiveCount(), len(report.Cells))
	if j.supervise {
		printSupervisor(world, report, j.quorum)
	}
	if j.integrity {
		printIntegrity(world, report)
	}

	if j.region != "" {
		reportRegion(world, report, j.region)
	} else {
		fmt.Printf("change-sensitive blocks by gridcell:\n%s\ntop gridcells by change-sensitive blocks:\n", render.WorldMap(report.CellCS))
		startDay, endDay := start/diurnal.SecondsPerDay, end/diurnal.SecondsPerDay
		for _, cell := range report.TopCells(j.cells) {
			fmt.Printf("  %s — %d change-sensitive of %d responsive\n",
				cell, report.CellCS[cell], report.Cells[cell].Responsive)
			series := report.CellFractionSeries(cell, changepoint.Down, startDay, endDay)
			for _, i := range peakDays(series, j.days) {
				fmt.Printf("      %s  %4.1f%% of blocks trending down\n", day((startDay+int64(i))*diurnal.SecondsPerDay), 100*series[i])
			}
		}
	}

	rep, code := report.Report, exitCode(nil, false, nil, report)
	switch code {
	case exitIntegrity:
		fmt.Fprintf(os.Stderr, "run completed DEGRADED: integrity firewall gated %d observer stream(s) across %d block verdicts\n",
			len(rep.GatedStreams), len(rep.IntegrityVerdicts))
	case exitDegraded:
		fmt.Fprintf(os.Stderr, "run completed DEGRADED: %d breakers open, %d blocks below quorum, %d blocks dead-lettered\n",
			len(rep.BreakerOpen), len(rep.QuorumShortfalls), len(rep.DeadLettered))
	}
	return code
}

// responsive counts the run's responsive blocks over all gridcells.
func responsive(report *diurnal.Report) int {
	n := 0
	for _, st := range report.Cells {
		n += st.Responsive
	}
	return n
}

// peakDays returns the indices of up to n of a daily series' positive
// values, largest first and earlier days first on ties.
func peakDays(series []float64, n int) []int {
	var peaks []int
	for i, v := range series {
		if v > 0 {
			peaks = append(peaks, i)
		}
	}
	sort.SliceStable(peaks, func(a, b int) bool { return series[peaks[a]] > series[peaks[b]] })
	return peaks[:min(n, len(peaks))]
}

// observerName returns a function naming observer i of world's engine.
func observerName(world *diurnal.World) func(int) string {
	names := world.Engine().Names()
	return func(i int) string {
		if i >= 0 && i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("#%d", i)
	}
}

// printSupervisor renders the run's supervision summary: per-observer
// health, breaker history, hedging activity, and quorum coverage.
func printSupervisor(world *diurnal.World, report *diurnal.Report, quorum int) {
	rep := report.Report
	name := observerName(world)
	if len(rep.HealthScores) > 0 {
		fmt.Printf("supervisor: observer health")
		for i, s := range rep.HealthScores {
			state := ""
			if slices.Contains(rep.BreakerOpen, i) {
				state = " (breaker open)"
			}
			fmt.Printf("  %s=%.2f%s", name(i), s, state)
		}
		fmt.Println()
	}
	for _, tx := range rep.BreakerTransitions {
		fmt.Printf("  breaker: observer %s %s->%s at block %d (score %.2f: %s)\n",
			name(tx.Observer), tx.From, tx.To, tx.Seq, tx.Score, tx.Reason)
	}
	if rep.HedgedBlocks > 0 {
		fmt.Printf("  hedged %d straggler blocks (%d hedge wins)\n", rep.HedgedBlocks, rep.HedgeWins)
	}
	if quorum > 0 {
		fmt.Printf("  quorum: %d blocks analyzed with fewer than %d observers\n",
			len(rep.QuorumShortfalls), quorum)
	}
	fmt.Println()
}

// printIntegrity renders the firewall summary: per-observer aggregate
// agreement and which observers had streams gated, with the gate each
// tripped first.
func printIntegrity(world *diurnal.World, report *diurnal.Report) {
	rep := report.Report
	name := observerName(world)
	if len(rep.AgreementScores) > 0 {
		fmt.Printf("integrity: observer agreement")
		for i, s := range rep.AgreementScores {
			fmt.Printf("  %s=%.2f", name(i), s)
		}
		fmt.Println()
	}
	if len(rep.GatedStreams) == 0 {
		fmt.Print("integrity: no observer streams gated\n\n")
		return
	}
	gated := map[int]int{}
	reason := map[int]string{}
	for _, v := range rep.IntegrityVerdicts {
		if gated[v.Observer]++; gated[v.Observer] == 1 {
			reason[v.Observer] = v.Reason
		}
	}
	for _, oi := range rep.GatedStreams {
		fmt.Printf("  gated: observer %s excluded from %d block(s) (first gate: %s)\n",
			name(oi), gated[oi], reason[oi])
	}
	fmt.Println()
}

// reportRegion prints per-block detections for one region.
func reportRegion(world *diurnal.World, report *diurnal.Report, code string) {
	idxs := world.BlocksInRegion(code)
	if len(idxs) == 0 {
		fmt.Printf("no blocks in region %s\n", code)
		return
	}
	fmt.Printf("region %s: %d blocks\n", code, len(idxs))
	for _, i := range idxs {
		b, _, cell := world.BlockAt(i)
		a := report.Blocks[i].Analysis
		if a == nil || !a.Class.ChangeSensitive {
			continue
		}
		fmt.Printf("  %v %s  diurnal score %.2f  profile %s\n", b.ID, cell, a.Class.DiurnalScore, a.Profile())
		for _, c := range a.Changes {
			fmt.Printf("      %-4s change around %s (onset %s, settled %s, %+.1f addresses)\n", c.Dir, day(c.Point),
				time.Unix(c.Start, 0).UTC().Format("01-02"), time.Unix(c.End, 0).UTC().Format("01-02"), c.RawAmplitude)
		}
	}
}

// saveObservations archives the raw probe streams of every block into a
// replayable dataset store. The window is a whole number of weeks (scan
// rejects -save otherwise), so the store covers exactly the analyzed run.
func saveObservations(dir string, world *diurnal.World, start, end int64) error {
	spec := dataset.Spec{
		Name:  fmt.Sprintf("diurnalscan-%s", time.Unix(start, 0).UTC().Format("20060102")),
		Start: start,
		Weeks: int((end - start) / (7 * diurnal.SecondsPerDay)),
	}
	for range world.Engine().Observers {
		spec.Sites = append(spec.Sites, "x")
	}
	blocks := make([]*dataset.WorldBlock, 0, world.Size())
	for i := 0; i < world.Size(); i++ {
		b, _, _ := world.BlockAt(i)
		blocks = append(blocks, &dataset.WorldBlock{Block: b})
	}
	_, err := dataset.CreateStore(dir, spec, world.Engine(), blocks)
	return err
}

// writeMarkdownReport renders the run's findings as a self-contained
// markdown document: summary, world map, per-continent sparklines, and the
// busiest gridcells — the textual analogue of the paper's public website
// (§2.9).
func writeMarkdownReport(path string, world *diurnal.World, report *diurnal.Report, start, end int64) error {
	var b strings.Builder
	startDay, endDay := start/diurnal.SecondsPerDay, end/diurnal.SecondsPerDay
	peakDay := func(series []float64) string {
		if p := peakDays(series, 1); len(p) > 0 {
			return day((startDay + int64(p[0])) * diurnal.SecondsPerDay)
		}
		return "-"
	}

	fmt.Fprintf(&b, "# Internet activity-change report, %s — %s\n\n", day(start), day(end))
	fmt.Fprintf(&b, "%d simulated /24 blocks; %d responsive; %d change-sensitive across %d gridcells.\n\n",
		world.Size(), responsive(report), report.ChangeSensitiveCount(), len(report.CellCS))

	fmt.Fprintf(&b, "## Change-sensitive blocks by gridcell\n\n```\n%s```\n\n", render.WorldMap(report.CellCS))

	b.WriteString("## Daily downward-change fraction by continent\n\n" +
		"| continent | change-sensitive blocks | daily trend | peak day |\n|---|---|---|---|\n")
	for _, cont := range geo.Continents() {
		series := report.ContinentFractionSeries(cont, startDay, endDay)
		fmt.Fprintf(&b, "| %s | %d | `%s` | %s |\n",
			cont, report.ContinentCS[cont], render.Sparkline(series, 40), peakDay(series))
	}
	b.WriteString("\n")

	b.WriteString("## Busiest gridcells\n\n" +
		"| gridcell | change-sensitive | daily downward trend | peak day |\n|---|---|---|---|\n")
	for _, cell := range report.TopCells(12) {
		series := report.CellFractionSeries(cell, changepoint.Down, startDay, endDay)
		fmt.Fprintf(&b, "| %s | %d | `%s` | %s |\n",
			cell, report.CellCS[cell], render.Sparkline(series, 40), peakDay(series))
	}
	b.WriteString("\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
