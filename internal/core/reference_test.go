package core

import (
	"context"

	"github.com/diurnalnet/diurnal/internal/outage"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
)

// referenceDetectOutages is the parent commit's Config.detectOutages,
// verbatim apart from its name: the belief over a materialised merged
// stream, then the interval filter.
func (cfg Config) referenceDetectOutages(merged []probe.Record) []outage.Interval {
	if cfg.OutageMaskMinHours < 0 {
		return nil
	}
	intervals, err := outage.FromRecords(merged, 0, outage.Params{})
	if err != nil {
		return nil
	}
	minDur := int64(cfg.OutageMaskMinHours) * 3600
	var kept []outage.Interval
	for _, iv := range intervals {
		// Open intervals (never recovered within the window) are not
		// transient failures but decommissionings or migrations — genuine
		// usage changes the paper reports (the Appendix B.2 VPN block).
		if iv.End == 0 {
			continue
		}
		if iv.End-iv.Start >= minDur {
			kept = append(kept, iv)
		}
	}
	return kept
}

// referenceAnalyzeCollected is the parent commit's Config.analyzeCollected:
// the front half as a composition of the exported stages, each a pass of
// its own over the records, with the merged stream materialised. It is the
// oracle the two-pass walk is held to, bit for bit, in front_test.go.
func (r Resolved) referenceAnalyzeCollected(perObs [][]probe.Record, eb []int, sc *Scratch) (*BlockAnalysis, error) {
	if len(eb) == 0 {
		return &BlockAnalysis{Series: &reconstruct.Series{}}, nil
	}
	series, outages, san, err := r.referenceFrontHalf(perObs, eb, nil)
	if err != nil {
		return nil, err
	}
	return r.analyzeResolvedSeries(series, outages, san, sc)
}

// referenceFrontHalf is the record-level half of the parent's kernel:
// Sanitize ×k → Repair1Loss ×k → MergeInto → ResolveContested →
// Reconstruct → detectOutages. merged is the reusable merge buffer Scratch
// used to hold (nil for a one-shot call). It rewrites perObs, as the
// parent's kernel did.
func (r Resolved) referenceFrontHalf(perObs [][]probe.Record, eb []int, merged *[]probe.Record) (*reconstruct.Series, []outage.Interval, reconstruct.SanitizeReport, error) {
	cfg := r.c
	var san reconstruct.SanitizeReport
	if cfg.SanitizeRecords {
		san = r.sanitizeStreams(perObs)
	}
	if merged == nil {
		merged = new([]probe.Record)
	}
	if cfg.Repair {
		for _, stream := range perObs {
			reconstruct.Repair1Loss(stream)
		}
	}
	*merged = reconstruct.MergeInto(*merged, perObs)
	if cfg.Integrity {
		*merged = reconstruct.ResolveContested(*merged)
	}
	series, err := reconstruct.Reconstruct(*merged, eb)
	if err != nil {
		return nil, nil, san, err
	}
	return series, cfg.referenceDetectOutages(*merged), san, nil
}

// sanitizeStreams is the parent's in-place pre-scan: each observer stream
// window-clipped, re-sorted and de-duplicated in place, the per-stream
// reports summed.
func (r Resolved) sanitizeStreams(perObs [][]probe.Record) reconstruct.SanitizeReport {
	lo, hi := r.sanitizeWindow()
	var total reconstruct.SanitizeReport
	for i := range perObs {
		var rep reconstruct.SanitizeReport
		perObs[i], rep = reconstruct.Sanitize(perObs[i], lo, hi)
		total.Merge(rep)
	}
	return total
}

// referenceSuspectObservers is the parent commit's run.suspectObservers,
// verbatim apart from its name: the stride-sampled blocks collected one
// after another on the calling goroutine into one tally. It is the oracle
// the fanned-out pre-scan is held to in invariance_test.go.
func (r *run) referenceSuspectObservers(ctx context.Context) (excluded []int, rates []float64) {
	p, cfg, world := r.p, r.cfg, r.world
	sample := p.HealthSample
	if sample <= 0 {
		sample = 64
	}
	if sample > len(world) {
		sample = len(world)
	}
	if sample == 0 {
		return nil, nil
	}
	stride := (len(world) + sample - 1) / sample
	if stride < 1 {
		stride = 1
	}
	var health *reconstruct.ObserverHealth
	var bufs [][]probe.Record
	for i, n := 0, 0; i < len(world) && n < sample; i += stride {
		if ctx.Err() != nil {
			return nil, nil
		}
		var err error
		bufs, err = p.Engine.CollectInto(ctx, world[i].Block, cfg.c.AnalysisStart, cfg.c.AnalysisEnd, bufs)
		if err != nil {
			continue
		}
		if health == nil {
			health = reconstruct.NewObserverHealth(len(bufs))
		}
		health.Add(bufs)
		n++
	}
	if health == nil {
		return nil, nil
	}
	rates = health.Rates()
	excluded = health.Suspect(healthTol)
	if len(excluded) == len(rates) {
		return nil, rates
	}
	return excluded, rates
}
