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

// ByzantineRow is one (attack, severity) cell of the Byzantine-observer
// sweep: detection accuracy with the integrity firewall armed versus
// disarmed, and whether the firewall caught the attacker.
type ByzantineRow struct {
	// Attack names the lying-observer scenario (see faults.AttackNames).
	Attack string
	// Severity scales the attack's knobs in faults.AttackPlan.
	Severity float64
	// AttackerGated reports whether the firewall excluded the attacking
	// observer's stream from at least one block's merge.
	AttackerGated bool
	// GatedBlocks counts the blocks where the attacker was gated; Reason
	// is the gate most often named in the verdicts.
	GatedBlocks int
	Reason      string
	// HonestGated counts blocks where a non-attacking observer was gated
	// (false accusations; should stay zero).
	HonestGated int
	// TP/FP/FN and Precision/Recall score WFH down-change detections with
	// the firewall armed, Table 5 style.
	TP, FP, FN        int
	Precision, Recall float64
	// RawTP/RawFP/RawFN and RawPrecision/RawRecall score the same attack
	// with the firewall disarmed — what the attacker does unopposed.
	RawTP, RawFP, RawFN     int
	RawPrecision, RawRecall float64
}

// ByzantineResult is the attack × severity sweep of the data-integrity
// firewall.
type ByzantineResult struct {
	Observers int
	// CleanPrecision and CleanRecall score a no-attack run with the
	// firewall armed — the accuracy reference the attacked runs are held
	// to, and (with CleanGated) the false-positive check: an armed
	// firewall on honest streams must gate nothing.
	CleanPrecision, CleanRecall float64
	CleanGated                  int
	Rows                        []ByzantineRow
}

// ByzantineSeverities is the sweep grid.
var ByzantineSeverities = []float64{0.33, 0.66, 1}

// Byzantine sweeps the Byzantine-observer attacks at increasing severity
// over one fixed world and reports how detection accuracy holds up with
// the data-integrity firewall armed. In every attacked run the last
// observer lies — rate-limited positives, duplicate floods, stale
// replays, shifted timestamps, or spoofed positives — while the others
// stay honest. Unlike the Robustness sweep, no breakers or pre-scan
// exclusion run: the firewall's per-block gates and majority merge are
// the only defense, so the sweep isolates their contribution.
func Byzantine(opts Options) (*ByzantineResult, error) {
	return byzantine(opts, ByzantineSeverities)
}

// byzantine runs the sweep over an explicit severity grid; the contract
// test sweeps only full severity to keep its runtime bounded.
func byzantine(opts Options, severities []float64) (*ByzantineResult, error) {
	start, end := q1Window()
	cal := events.Year2020()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   opts.blocks(240),
		Seed:     opts.seed() + 29,
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
	armed := cfg
	armed.Integrity = true

	const observers = 4
	attacker := observers - 1
	newEngine := func(plan *faults.Plan) core.Prober {
		inner := &probe.Engine{Observers: probe.StandardObservers(observers), QuarterSeed: opts.seed()}
		if plan == nil {
			return inner
		}
		return &faults.Engine{Inner: inner, Plan: plan}
	}
	score := func(run *core.WorldResult) (tp, fp, fn int) {
		for i := range run.Blocks {
			if a := run.Blocks[i].Analysis; a != nil {
				btp, bfp, bfn := scoreWFH(world[i], a, cal, start, end)
				tp += btp
				fp += bfp
				fn += bfn
			}
		}
		return tp, fp, fn
	}

	res := &ByzantineResult{Observers: observers}
	clean, err := (&core.Pipeline{Config: armed, Engine: newEngine(nil)}).Run(context.Background(), world)
	if err != nil {
		return nil, fmt.Errorf("clean baseline: %w", err)
	}
	res.CleanGated = len(clean.Report.IntegrityVerdicts)
	res.CleanPrecision, res.CleanRecall = prf(score(clean))

	for _, attack := range faults.AttackNames {
		for _, sev := range severities {
			plan, err := faults.AttackPlan(observers, attack, sev, opts.seed()+31)
			if err != nil {
				return nil, err
			}
			run, err := (&core.Pipeline{Config: armed, Engine: newEngine(plan)}).Run(context.Background(), world)
			if err != nil {
				return nil, fmt.Errorf("%s severity %.2f: %w", attack, sev, err)
			}
			raw, err := (&core.Pipeline{Config: cfg, Engine: newEngine(plan)}).Run(context.Background(), world)
			if err != nil {
				return nil, fmt.Errorf("%s severity %.2f (disarmed): %w", attack, sev, err)
			}
			row := ByzantineRow{Attack: attack, Severity: sev}
			reasons := map[string]int{}
			for _, v := range run.Report.IntegrityVerdicts {
				if v.Observer == attacker {
					row.GatedBlocks++
					reasons[v.Reason]++
				} else {
					row.HonestGated++
				}
			}
			row.AttackerGated = row.GatedBlocks > 0
			for r, n := range reasons {
				if best, ok := reasons[row.Reason]; !ok || n > best || (n == best && r < row.Reason) {
					row.Reason = r
				}
			}
			row.TP, row.FP, row.FN = score(run)
			row.Precision, row.Recall = prf(row.TP, row.FP, row.FN)
			row.RawTP, row.RawFP, row.RawFN = score(raw)
			row.RawPrecision, row.RawRecall = prf(row.RawTP, row.RawFP, row.RawFN)
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// String renders the attack × severity firewall table.
func (r *ByzantineResult) String() string {
	t := &table{header: []string{
		"attack", "severity", "attacker gated", "gate", "gated blocks",
		"honest gated", "precision", "recall", "raw precision", "raw recall",
	}}
	for _, row := range r.Rows {
		gated := "NO"
		if row.AttackerGated {
			gated = "yes"
		}
		t.add(
			row.Attack, fmt.Sprintf("%.2f", row.Severity), gated, row.Reason,
			itoa(row.GatedBlocks), itoa(row.HonestGated),
			fmt.Sprintf("%.0f%%", 100*row.Precision),
			fmt.Sprintf("%.0f%%", 100*row.Recall),
			fmt.Sprintf("%.0f%%", 100*row.RawPrecision),
			fmt.Sprintf("%.0f%%", 100*row.RawRecall),
		)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Byzantine — WFH detection accuracy with one lying observer of %d (integrity firewall armed)\n", r.Observers)
	fmt.Fprintf(&b, "clean baseline (no attack): precision %.0f%%, recall %.0f%%, %d streams gated\n%s",
		100*r.CleanPrecision, 100*r.CleanRecall, r.CleanGated, t)
	b.WriteString("the last observer attacks: rate-limited positives, duplicate floods, stale replays,\n" +
		"shifted timestamps, or spoofed positives. \"raw\" columns disarm the firewall. No\n" +
		"breakers or pre-scan exclusion run — the per-block gates and majority merge are the\n" +
		"only defense, and honest observers must never be gated.\n")
	return b.String()
}
