package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// RobustnessRow is one severity step of the fault sweep.
type RobustnessRow struct {
	// Severity scales every fault knob in faults.DefaultPlan: 0 is a
	// clean measurement plane, 1 combines a broken observer (heavy
	// erratic loss plus a two-week downtime), bursty link loss on every
	// site, a skewed clock, and a corrupting collector.
	Severity float64
	// Analyzed and Failed count blocks whose analysis completed or
	// errored; the pipeline must cover every healthy block regardless of
	// severity.
	Analyzed, Failed int
	// Excluded is how many observers the §2.7 health check discarded.
	Excluded int
	// ChangeSensitive is the surviving change-sensitive block count.
	ChangeSensitive int
	// TP/FP/FN score down-change detections near each region's WFH date
	// against ground truth, as in Table 5.
	TP, FP, FN int
	Precision  float64
	Recall     float64
	// Quarantined counts probe records removed by sanitization across all
	// blocks; LowConf counts detections demoted for falling in
	// measurement gaps.
	Quarantined, LowConf int
	// RawTP/RawFP/RawFN and RawPrecision/RawRecall score the same sweep
	// with every mitigation disabled (no sanitization, no gap marking, no
	// observer exclusion) — the degradation the harness would suffer
	// without the graceful-degradation machinery.
	RawTP, RawFP, RawFN     int
	RawPrecision, RawRecall float64
}

// RobustnessResult is the severity sweep of the fault-injection harness.
type RobustnessResult struct {
	Observers int
	Rows      []RobustnessRow
}

// RobustnessSeverities is the sweep grid.
var RobustnessSeverities = []float64{0, 0.25, 0.5, 0.75, 1}

// Robustness sweeps fault severity over one fixed world and reports how
// change-detection accuracy degrades. At each step the probing substrate
// is wrapped in a faults.Engine carrying faults.DefaultPlan at that
// severity, and the pipeline runs with every graceful-degradation
// mechanism enabled: record sanitization, gap-aware trend confidence,
// observer auto-exclusion, and per-block error accumulation. The paper's
// measurement plane survived exactly these pathologies (congested links
// in §3.3, the broken sites c and g in §2.7); this experiment checks the
// reproduction degrades gradually rather than collapsing.
func Robustness(opts Options) (*RobustnessResult, error) {
	start, end := q1Window()
	cal := events.Year2020()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   opts.blocks(300),
		Seed:     opts.seed() + 17,
		Calendar: cal,
		Start:    start,
		End:      end,
	})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(start, end)
	cfg.BaselineStart = start
	cfg.BaselineEnd = netsim.Date(2020, time.January, 29)

	rawCfg := cfg
	rawCfg.SanitizeRecords = false
	rawCfg.MaxGapHours = -1

	const observers = 4
	res := &RobustnessResult{Observers: observers}
	for _, sev := range RobustnessSeverities {
		plan := faults.DefaultPlan(observers, sev, start, opts.seed()+23)
		newEngine := func() core.Prober {
			return &faults.Engine{
				Inner: &probe.Engine{Observers: probe.StandardObservers(observers), QuarterSeed: opts.seed()},
				Plan:  plan,
			}
		}
		run, err := (&core.Pipeline{
			Config:          cfg,
			Engine:          newEngine(),
			ExcludeSuspects: true,
			HealthSample:    16,
		}).Run(context.Background(), world)
		if err != nil {
			return nil, fmt.Errorf("severity %.2f: %w", sev, err)
		}
		raw, err := (&core.Pipeline{Config: rawCfg, Engine: newEngine()}).Run(context.Background(), world)
		if err != nil {
			return nil, fmt.Errorf("severity %.2f (unmitigated): %w", sev, err)
		}
		row := RobustnessRow{
			Severity: sev,
			Analyzed: run.Report.AnalyzedBlocks,
			Failed:   len(run.Report.BlockErrors),
			Excluded: len(run.Report.ExcludedObservers),
		}
		for i := range run.Blocks {
			wb := world[i]
			if a := run.Blocks[i].Analysis; a != nil {
				row.Quarantined += a.Sanitize.Total()
				row.LowConf += len(a.LowConfChanges)
				if a.Class.ChangeSensitive {
					row.ChangeSensitive++
				}
				tp, fp, fn := scoreWFH(wb, a, cal, start, end)
				row.TP += tp
				row.FP += fp
				row.FN += fn
			}
			if a := raw.Blocks[i].Analysis; a != nil {
				tp, fp, fn := scoreWFH(wb, a, cal, start, end)
				row.RawTP += tp
				row.RawFP += fp
				row.RawFN += fn
			}
		}
		row.Precision, row.Recall = prf(row.TP, row.FP, row.FN)
		row.RawPrecision, row.RawRecall = prf(row.RawTP, row.RawFP, row.RawFN)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// scoreWFH scores one change-sensitive block's down-change detections
// against its region's WFH date, Table 5 style: (1,0,0) for a confirmed
// detection, (0,1,0) for a detection without a true change, (0,0,1) for a
// missed true change.
func scoreWFH(wb *dataset.WorldBlock, a *core.BlockAnalysis, cal *events.Calendar, start, end int64) (tp, fp, fn int) {
	if !a.Class.ChangeSensitive {
		return 0, 0, 0
	}
	date, ok := cal.WFHDate(wb.Place.Region.Code)
	if !ok || date < start || date >= end {
		return 0, 0, 0
	}
	near := false
	for _, c := range a.DownChanges() {
		if events.MatchWithin(c.Point, date, events.MatchWindowDays) {
			near = true
			break
		}
	}
	truth := hasVisibleChange(wb.Block, wb.Place.Region.TZOffset, date)
	switch {
	case near && truth:
		return 1, 0, 0
	case near:
		return 0, 1, 0
	case truth:
		return 0, 0, 1
	}
	return 0, 0, 0
}

// prf computes precision and recall, zero when undefined.
func prf(tp, fp, fn int) (precision, recall float64) {
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall
}

// String renders the severity→accuracy degradation table.
func (r *RobustnessResult) String() string {
	t := &table{header: []string{
		"severity", "analyzed", "failed", "excluded obs", "CS blocks",
		"precision", "recall", "raw precision", "raw recall", "quarantined", "low-conf",
	}}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%.2f", row.Severity),
			itoa(row.Analyzed), itoa(row.Failed), itoa(row.Excluded),
			itoa(row.ChangeSensitive),
			fmt.Sprintf("%.0f%%", 100*row.Precision),
			fmt.Sprintf("%.0f%%", 100*row.Recall),
			fmt.Sprintf("%.0f%%", 100*row.RawPrecision),
			fmt.Sprintf("%.0f%%", 100*row.RawRecall),
			itoa(row.Quarantined), itoa(row.LowConf),
		)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness — WFH detection accuracy under injected measurement faults (%d observers)\n%s", r.Observers, t)
	b.WriteString("severity 1 breaks one observer outright (downtime + erratic loss), adds bursty loss,\n" +
		"clock skew, and a corrupting collector. \"raw\" columns disable every mitigation\n" +
		"(sanitization, gap marking, observer exclusion): accuracy decays with severity,\n" +
		"while the mitigated pipeline degrades gracefully instead of collapsing.\n")
	return b.String()
}
