// Package core implements the paper's primary contribution: the analysis
// pipeline that turns raw probe observations into detected changes in
// daily human activity (Table 1). Per block it reconstructs active-address
// counts (§2.3, with 1-loss repair), classifies change sensitivity (§2.4),
// extracts the long-term trend with STL (§2.5), and detects changes with
// CUSUM on the normalized trend (§2.6) with outage-pair filtering. Across
// blocks it aggregates downward changes into 2×2° gridcells and continents
// (§2.6, §4.1).
package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/diurnalnet/diurnal/internal/blockclass"
	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/outage"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
	"github.com/diurnalnet/diurnal/internal/stl"
)

// Config parameterizes the per-block analysis. Zero fields default to the
// paper's choices.
type Config struct {
	// AnalysisStart and AnalysisEnd bound the trend/change analysis
	// window (e.g. 2020h1). Required.
	AnalysisStart, AnalysisEnd int64
	// BaselineStart and BaselineEnd bound the change-sensitivity
	// classification window; the paper uses January 2020 "since it is
	// before Covid was widespread" (§2.4). Zero values reuse the analysis
	// window.
	BaselineStart, BaselineEnd int64
	// SampleStep is the resampling interval for trend analysis in
	// seconds; it must divide 86400 (default 3600).
	SampleStep int64
	// Repair enables 1-loss repair (default on via DefaultConfig).
	Repair bool
	// Class holds the change-sensitivity thresholds.
	Class blockclass.Config
	// CUSUM holds the change-detection parameters (paper: threshold 1,
	// drift 0.001 per 11-minute round; default here threshold 1, drift
	// 0.004 per hourly sample — see withDefaults).
	CUSUM changepoint.Opts
	// OutageGapDays bounds how close a down→up pair must be to be
	// discarded as an outage or renumbering artifact on timing alone
	// (default 3). Longer outages are handled by the Trinocular-style
	// belief detector instead (§2.6: changes are compared "with outage
	// detections"), which distinguishes a silenced block from a holiday —
	// during a holiday the always-on addresses keep answering.
	OutageGapDays int
	// OutageMaskMinHours is the minimum duration of a belief-detected
	// outage used to mask changes (default 24; shorter non-response spans
	// are diurnal artifacts in blocks without always-on addresses).
	// Negative disables belief-based masking.
	OutageMaskMinHours int
	// MinChangeAddresses is the minimum absolute trend movement, in
	// addresses, for a change to be kept. It echoes the paper's swing
	// threshold s=5 — smaller moves are indistinguishable from "noise
	// such as individual computer restarts" (§2.4) even when the z-scored
	// CUSUM flags them. Because the trend is a weekly mean, a drop of s
	// addresses confined to the ~40 working hours of a week dilutes to
	// s*40/168 ≈ 1.2 in trend units, which is the default. Negative
	// disables.
	MinChangeAddresses float64
	// BoundaryGuardDays drops changes whose point falls within this many
	// days of the analysis window's edges, where STL trends and the
	// CUSUM backward pass are unreliable. The paper likewise excludes
	// detections overlapping "transients at the change of quarter"
	// (§3.6). Default 4; negative disables.
	BoundaryGuardDays int
	// SanitizeRecords enables the record-stream sanitization pass:
	// per-observer streams are window-clipped, re-sorted, and
	// de-duplicated before repair and merging, quarantining the
	// duplicated/reordered/skewed records a faulty collector produces.
	// DefaultConfig enables it; the tally lands in BlockAnalysis.Sanitize.
	SanitizeRecords bool
	// Integrity enables the data-integrity firewall (internal/integrity):
	// per-observer per-block sanity gates exclude untrustworthy streams
	// from the merge, and contested (time, addr) observations among the
	// surviving streams resolve by observer majority instead of
	// last-write-wins. Off by default — with it off, results are
	// bit-identical to prior releases.
	Integrity bool
	// MaxGapHours marks resampled trend bins farther than this many hours
	// from any real measurement as low-confidence; detections whose point
	// of change falls in such a gap move to BlockAnalysis.LowConfChanges
	// instead of Changes (default 24; negative disables gap marking).
	MaxGapHours int
	// STLOuter is the number of STL robustness iterations (default 1).
	STLOuter int
}

// DefaultConfig returns the paper's configuration for a given analysis
// window: every default Resolve applies, spelled out, except the baseline
// window, which stays zero so that a caller may set BaselineEnd alone.
func DefaultConfig(start, end int64) Config {
	// An empty window's error is the caller's to meet when it resolves.
	r, _ := Config{AnalysisStart: start, AnalysisEnd: end, Repair: true, Class: blockclass.Default(), SanitizeRecords: true}.Resolve()
	c := r.c
	c.BaselineStart, c.BaselineEnd = 0, 0
	return c
}

func (c Config) withDefaults() Config {
	if c.SampleStep == 0 {
		c.SampleStep = 3600
	}
	if c.BaselineStart == 0 && c.BaselineEnd == 0 {
		c.BaselineStart, c.BaselineEnd = c.AnalysisStart, c.AnalysisEnd
	}
	if c.CUSUM.Threshold == 0 {
		c.CUSUM = changepoint.DefaultOpts()
		// The drift per hourly sample is chosen so that (a) a real change
		// of ~2.5 sigma completing within a week or two still accumulates
		// past the threshold, while (b) the slow ±2-sigma wander that
		// z-normalization guarantees for no-change blocks is absorbed
		// (2 sigma over two weeks = 336 samples x 0.004 = 1.34 absorbed).
		// It plays the role of the paper's 0.001-per-11-minute-round drift
		// at that data's much higher sample rate.
		c.CUSUM.Drift = 0.004
	}
	if c.OutageGapDays == 0 {
		c.OutageGapDays = 3
	}
	if c.OutageMaskMinHours == 0 {
		c.OutageMaskMinHours = 24
	}
	if c.BoundaryGuardDays == 0 {
		c.BoundaryGuardDays = 4
	}
	if c.MaxGapHours == 0 {
		c.MaxGapHours = 24
	}
	if c.MinChangeAddresses == 0 {
		c.MinChangeAddresses = 1.2
	}
	if c.STLOuter == 0 {
		c.STLOuter = 1
	}
	return c
}

func (c Config) validate() error {
	if c.AnalysisEnd <= c.AnalysisStart {
		return fmt.Errorf("core: empty analysis window [%d,%d)", c.AnalysisStart, c.AnalysisEnd)
	}
	if c.SampleStep <= 0 || netsim.SecondsPerDay%c.SampleStep != 0 {
		return fmt.Errorf("core: sample step %d must divide 86400", c.SampleStep)
	}
	if c.BaselineEnd < c.BaselineStart {
		return fmt.Errorf("core: invalid baseline window")
	}
	return nil
}

// Resolved is a Config with its defaults applied and validated. It is
// what the per-block kernel, FrontState, Pipeline.Run and the streaming
// detector take, so an unresolved config cannot reach them: its field is
// unexported, and Resolve is the only way to make one.
type Resolved struct{ c Config }

// Resolve applies the defaults to c's zero fields and validates the
// result, once; it is the one place a config is resolved. On error the
// Resolved still holds the defaults-applied config, which RunSignature
// signs, and must not be analyzed with.
func (c Config) Resolve() (Resolved, error) {
	c = c.withDefaults()
	return Resolved{c}, c.validate()
}

// Config returns the resolved config, its defaults spelled out.
func (r Resolved) Config() Config { return r.c }

// Change is one detected change in a block's activity, in wall-clock time.
type Change struct {
	Dir changepoint.Direction
	// Start, Alarm, and End are the detected change boundaries; Point is
	// the estimated moment of steepest trend movement between Start and
	// End — the paper's "point of change" (Figure 1c).
	Start, Alarm, End, Point int64
	// Amplitude is the z-scored trend movement across the change;
	// RawAmplitude is the same movement in addresses.
	Amplitude    float64
	RawAmplitude float64
}

// BlockAnalysis is the per-block pipeline output.
type BlockAnalysis struct {
	// Series is the reconstructed active-address series.
	Series *reconstruct.Series
	// Class is the change-sensitivity classification over the baseline
	// window.
	Class blockclass.Result
	// Resampled, Trend, Seasonal and Normalized are the analysis-window
	// series at SampleStep resolution (nil for non-analyzable blocks).
	Resampled, Trend, Seasonal, Normalized []float64
	// Changes are the CUSUM detections that survive outage filtering;
	// OutagePairs holds the removed changes (paired down/up transients
	// and changes masked by detected outages).
	Changes     []Change
	OutagePairs []Change
	// LowConfChanges are detections whose point of change falls in a
	// low-confidence measurement gap (see Config.MaxGapHours) — kept out
	// of Changes so aggregation only counts well-measured detections.
	LowConfChanges []Change
	// Confidence marks, per Resampled bin, whether a real measurement
	// lies within MaxGapHours; nil when gap marking is disabled or the
	// block is not change-sensitive.
	Confidence []bool
	// Sanitize tallies what the sanitization pass quarantined across all
	// observer streams (zero when SanitizeRecords is off or streams were
	// clean).
	Sanitize reconstruct.SanitizeReport
	// Outages are the belief-detected outage intervals used for masking.
	Outages []outage.Interval
	// SampleStart and SampleStep map sample indices to timestamps.
	SampleStart, SampleStep int64
}

// DownChanges returns only the downward changes — the human-activity
// signal the paper aggregates.
func (a *BlockAnalysis) DownChanges() []Change {
	var out []Change
	for _, c := range a.Changes {
		if c.Dir == changepoint.Down {
			out = append(out, c)
		}
	}
	return out
}

// AnalyzeRecords runs the full per-block pipeline over per-observer probe
// streams. eb is the block's target list E(b). Blocks that are not
// change-sensitive still get a Series and Class but no trend analysis.
// perObs is not modified: neither its slices nor their records.
func (cfg Config) AnalyzeRecords(perObs [][]probe.Record, eb []int) (*BlockAnalysis, error) {
	return cfg.AnalyzeCollectedScratch(perObs, eb, nil)
}

// AnalyzeCollectedScratch is the shared analysis kernel: it takes
// already-collected per-observer probe streams and runs the record-level
// half — sanitization, the per-stream repair pass, and one merged-order
// walk that reconstructs the series and tracks the outage belief together
// — on sc's FrontState, advanced once over the whole history, then
// classification and trend/change detection. The world driver
// (AnalyzeBlockScratch) collects then calls here. The streaming daemon
// keeps a FrontState per block instead and advances it by each refresh's
// new records, which gives what this gives over the whole history. perObs
// is not modified; sc may be nil for a one-shot call.
func (cfg Config) AnalyzeCollectedScratch(perObs [][]probe.Record, eb []int, sc *Scratch) (*BlockAnalysis, error) {
	r, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	if sc == nil {
		sc = NewScratch()
	}
	return r.analyzeCollected(perObs, eb, sc)
}

// Reconstruct runs the kernel's record-level half alone (see FrontState),
// as cfg's SanitizeRecords, Repair and Integrity ask, for callers that stop
// at the series, such as the paper's reconstruction tables. It returns the
// series and the outages that would mask its changes, or an error when eb
// is empty. perObs is not modified; sc may be nil for a one-shot call.
func (cfg Config) Reconstruct(perObs [][]probe.Record, eb []int, sc *Scratch) (*reconstruct.Series, []outage.Interval, error) {
	r, err := cfg.Resolve()
	if err != nil {
		return nil, nil, err
	}
	if len(eb) == 0 {
		return nil, nil, fmt.Errorf("core: empty target list")
	}
	if sc == nil {
		sc = NewScratch()
	}
	series, outages, _ := r.advanceOnce(perObs, eb, sc).front(sc)
	return series, outages, nil
}

// analyzeCollected is the kernel behind AnalyzeCollectedScratch.
func (r Resolved) analyzeCollected(perObs [][]probe.Record, eb []int, sc *Scratch) (*BlockAnalysis, error) {
	return r.advanceOnce(perObs, eb, sc).Analyze(sc)
}

// advanceOnce is the batch kernel's record-level half: sc's FrontState,
// reset for the block, advanced once over its whole history.
func (r Resolved) advanceOnce(perObs [][]probe.Record, eb []int, sc *Scratch) *FrontState {
	f := &sc.front
	f.cfg, f.eb, f.once = r, eb, true
	f.Reset()
	f.Advance(perObs)
	return f
}

// sanitizeWindow is the window sanitizing keeps records in: the analysis
// and baseline windows together, so legitimate baseline records survive.
func (r Resolved) sanitizeWindow() (lo, hi int64) {
	lo, hi = r.c.AnalysisStart, r.c.AnalysisEnd
	if r.c.BaselineStart != 0 && r.c.BaselineStart < lo {
		lo = r.c.BaselineStart
	}
	if r.c.BaselineEnd > hi {
		hi = r.c.BaselineEnd
	}
	return lo, hi
}

// AnalyzeSeries runs classification and change detection over an already
// reconstructed active-address series — the entry point for callers who
// bring their own measurements instead of the simulated prober. Without
// raw probe records, belief-based outage masking is unavailable and only
// the timing-based pair filter applies.
func (cfg Config) AnalyzeSeries(series *reconstruct.Series) (*BlockAnalysis, error) {
	r, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	return r.analyzeResolvedSeries(series, nil, reconstruct.SanitizeReport{}, NewScratch())
}

// analyzeResolvedSeries is the series-level half of the per-block kernel:
// classification, then for change-sensitive blocks the STL/CUSUM trend
// stages.
func (r Resolved) analyzeResolvedSeries(series *reconstruct.Series, outages []outage.Interval, san reconstruct.SanitizeReport, sc *Scratch) (*BlockAnalysis, error) {
	cls, err := blockclass.ClassifyScratch(series, r.c.BaselineStart, r.c.BaselineEnd, r.c.Class, sc.class)
	if err != nil {
		return nil, err
	}
	out := &BlockAnalysis{
		Series:      series,
		Class:       cls,
		Outages:     outages,
		Sanitize:    san,
		SampleStart: r.c.AnalysisStart,
		SampleStep:  r.c.SampleStep,
	}
	if !cls.ChangeSensitive {
		return out, nil
	}
	if err := r.analyzeTrend(out, sc); err != nil {
		return nil, err
	}
	return out, nil
}

// maskingOutages keeps the detector's intervals long enough to mask trend
// changes.
func (r Resolved) maskingOutages(det *outage.Detector) []outage.Interval {
	if det == nil {
		return nil
	}
	minDur := int64(r.c.OutageMaskMinHours) * 3600
	var kept []outage.Interval
	for _, iv := range det.Outages() {
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

// analyzeTrend fills the STL/CUSUM stages of a change-sensitive block.
// The seasonal period is one week: the paper's seasonality model captures
// "a daily and possibly weekly signal" (§2.5), and a weekly period absorbs
// both the five workday bumps and the weekend flats (Figure 1a) so the
// trend carries only the long-term baseline.
func (r Resolved) analyzeTrend(out *BlockAnalysis, sc *Scratch) error {
	cfg := &r.c
	maxGap := int64(cfg.MaxGapHours) * 3600
	if cfg.MaxGapHours < 0 {
		maxGap = 0
	}
	resampled, conf := out.Series.ResampleWithGaps(cfg.AnalysisStart, cfg.AnalysisEnd, cfg.SampleStep, maxGap)
	if resampled == nil {
		return nil
	}
	if maxGap > 0 {
		out.Confidence = conf
	}
	period := int(7 * netsim.SecondsPerDay / cfg.SampleStep)
	if len(resampled) < 2*period {
		return nil
	}
	opts := stl.DefaultOpts(period)
	opts.Outer = cfg.STLOuter
	// A tighter trend smoother (~8 days instead of Cleveland's default
	// ~2 weeks) keeps step changes sharp enough for CUSUM while the
	// weekly seasonal component still absorbs the workday/weekend cycle.
	opts.Trend = period + 25
	// Periodic seasonal: level changes go to the trend, matching the
	// paper's Figure 1b decomposition.
	opts.Periodic = true
	// The decomposition runs in the worker's reusable workspace, but the
	// Result is fresh per block: its Trend and Seasonal slices are retained
	// in the BlockAnalysis beyond this call, so they must not alias scratch.
	var dec stl.Result
	if err := sc.stl.DecomposeInto(&dec, resampled, opts); err != nil {
		return fmt.Errorf("core: stl: %w", err)
	}
	out.Resampled = resampled
	out.Trend = dec.Trend
	out.Seasonal = dec.Seasonal
	out.Normalized = changepoint.Normalize(dec.Trend)
	changes, err := changepoint.Detect(out.Normalized, cfg.CUSUM)
	if err != nil {
		return fmt.Errorf("core: cusum: %w", err)
	}
	samplesPerDay := int(netsim.SecondsPerDay / cfg.SampleStep)
	if cfg.BoundaryGuardDays > 0 {
		guard := cfg.BoundaryGuardDays * samplesPerDay
		trimmed := changes[:0]
		for _, c := range changes {
			// A change whose estimated onset sits in the first or last few
			// days of the window is indistinguishable from an STL edge
			// artifact.
			if c.Start < guard || c.Start >= len(out.Trend)-guard {
				continue
			}
			trimmed = append(trimmed, c)
		}
		changes = trimmed
	}
	all := suppressRebounds(r.toWallClock(changes, out))
	gap := int64(cfg.OutageGapDays) * netsim.SecondsPerDay
	kept2, removed := filterOutagePairs(all, gap)
	// Belief-based masking (§2.6): a change overlapping a detected outage
	// interval (± one day of trend smearing) is a network failure, not a
	// human-activity change.
	const slop = netsim.SecondsPerDay
	for _, c := range kept2 {
		masked := false
		for _, iv := range out.Outages {
			if c.End >= iv.Start-slop && c.Start <= iv.End+slop {
				masked = true
				break
			}
		}
		if masked {
			removed = append(removed, c)
		} else if out.lowConfidence(c) {
			// A change estimated inside a measurement gap (an observer
			// downtime no other site covered) is reported separately: it may
			// be real, but its timing is carried-forward guesswork.
			out.LowConfChanges = append(out.LowConfChanges, c)
		} else {
			out.Changes = append(out.Changes, c)
		}
	}
	out.OutagePairs = removed
	return nil
}

// lowConfidence reports whether the change's estimated point falls in a
// bin with no nearby real measurement.
func (a *BlockAnalysis) lowConfidence(c Change) bool {
	if a.Confidence == nil || a.SampleStep <= 0 {
		return false
	}
	idx := int((c.Point - a.SampleStart) / a.SampleStep)
	return idx >= 0 && idx < len(a.Confidence) && !a.Confidence[idx]
}

// filterOutagePairs removes down→up (or up→down) pairs whose alarms fall
// within maxGap of each other and whose magnitudes are comparable — the
// signature of an outage or an ISP renumbering event, where the recovery
// undoes the drop (§2.6). A sustained human change followed by a small
// unrelated move is not paired.
func filterOutagePairs(changes []Change, maxGap int64) (kept, removed []Change) {
	used := make([]bool, len(changes))
	comparable := func(a, b Change) bool {
		x, y := math.Abs(a.RawAmplitude), math.Abs(b.RawAmplitude)
		if x > y {
			x, y = y, x
		}
		return y == 0 || x >= 0.6*y
	}
	for i := range changes {
		if used[i] {
			continue
		}
		paired := false
		for j := i + 1; j < len(changes); j++ {
			if used[j] {
				continue
			}
			if changes[j].Alarm-changes[i].Alarm > maxGap {
				break
			}
			if changes[j].Dir == -changes[i].Dir && comparable(changes[i], changes[j]) {
				used[i], used[j] = true, true
				removed = append(removed, changes[i], changes[j])
				paired = true
				break
			}
		}
		if !paired && !used[i] {
			kept = append(kept, changes[i])
		}
	}
	return kept, removed
}

// suppressRebounds drops trend-stabilization artifacts: right after a
// large change the smoothed trend overshoots and corrects, producing a
// small opposite-direction change that begins where the real one ended.
// A genuine recovery (outage up-leg, festival return-to-work) moves the
// trend back by a comparable amount and survives the 70% magnitude test.
func suppressRebounds(changes []Change) []Change {
	if len(changes) < 2 {
		return changes
	}
	out := changes[:1]
	for _, c := range changes[1:] {
		prev := out[len(out)-1]
		opposite := c.Dir == -prev.Dir
		adjacent := c.Start-prev.End <= 2*netsim.SecondsPerDay
		smaller := math.Abs(c.RawAmplitude) < 0.7*math.Abs(prev.RawAmplitude)
		if opposite && adjacent && smaller {
			continue
		}
		out = append(out, c)
	}
	return out
}

// toWallClock converts sample-index changes into timestamped ones and
// locates the point of steepest trend movement.
func (r Resolved) toWallClock(changes []changepoint.Change, a *BlockAnalysis) []Change {
	var out []Change
	for _, c := range changes {
		point := c.Start
		steepest := 0.0
		for i := c.Start; i < c.End && i+1 < len(a.Trend); i++ {
			d := a.Trend[i+1] - a.Trend[i]
			if c.Dir == changepoint.Down {
				d = -d
			}
			if d > steepest {
				steepest = d
				point = i
			}
		}
		rawAmp := a.Trend[c.End] - a.Trend[c.Start]
		if r.c.MinChangeAddresses > 0 && math.Abs(rawAmp) < r.c.MinChangeAddresses {
			continue
		}
		ts := func(idx int) int64 { return a.SampleStart + int64(idx)*r.c.SampleStep }
		out = append(out, Change{
			Dir:          c.Dir,
			Start:        ts(c.Start),
			Alarm:        ts(c.Alarm),
			End:          ts(c.End),
			Point:        ts(point),
			Amplitude:    c.Amplitude,
			RawAmplitude: rawAmp,
		})
	}
	return out
}

// Scratch holds one worker's reusable analysis state: the probe record
// buffers, the front half the kernel advances once per block (its cursor,
// accumulator and stream buffers), the classifier's cached FFT plans and
// resample buffers, and the STL workspace. A world-scale run hands each
// worker goroutine its own Scratch (Pipeline.Run does), so the per-block
// hot path allocates only for outputs that outlive the block; everything
// length-dependent is paid once per distinct series length. A Scratch is
// not safe for concurrent use — per-worker ownership, not a shared locked
// cache, is the design (see DESIGN.md).
type Scratch struct {
	perObs [][]probe.Record
	front  FrontState
	// walked and replay are FrontState.Analyze's record buffers: the held
	// records' merged walk, and the trace's decoding.
	walked, replay []probe.Record
	class          *blockclass.Scratch
	stl            stl.Workspace
}

// NewScratch returns an empty Scratch; caches warm up lazily.
func NewScratch() *Scratch {
	return &Scratch{class: blockclass.NewScratch()}
}

// scratchPool backs AnalyzeBlock, the convenience entry point that doesn't
// manage worker lifetimes itself.
var scratchPool = sync.Pool{New: func() interface{} { return NewScratch() }}

// AnalyzeBlock probes a block with the engine over the analysis window and
// analyzes the resulting streams — the common entry point for a fully
// simulated block. eng is any Prober (*probe.Engine, or a faults.Engine
// wrapping one).
func (cfg Config) AnalyzeBlock(eng Prober, b *netsim.Block) (*BlockAnalysis, error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return cfg.AnalyzeBlockScratch(context.Background(), eng, b, sc)
}

// AnalyzeBlockScratch is AnalyzeBlock with cancellation, reusing sc's
// buffers, plans and workspaces across calls: ctx is passed to the prober's
// collection loop, so a canceled or expired context aborts the probe
// promptly and surfaces ctx's error. sc may be nil for a one-shot analysis.
// Callers that loop over many blocks hold one Scratch per goroutine.
func (cfg Config) AnalyzeBlockScratch(ctx context.Context, eng Prober, b *netsim.Block, sc *Scratch) (*BlockAnalysis, error) {
	r, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	if sc == nil {
		sc = NewScratch()
	}
	return r.collectAndAnalyze(ctx, eng, b, sc)
}

// collectAndAnalyze is the one per-block kernel: collect the block's
// streams over the analysis window, then analyzeCollected. Pipeline.Run's
// workers call it directly, with the config the run resolved once.
func (r Resolved) collectAndAnalyze(ctx context.Context, eng Prober, b *netsim.Block, sc *Scratch) (*BlockAnalysis, error) {
	eb := b.EverActive()
	if len(eb) == 0 {
		return &BlockAnalysis{Series: &reconstruct.Series{}}, nil
	}
	var err error
	sc.perObs, err = eng.CollectInto(ctx, b, r.c.AnalysisStart, r.c.AnalysisEnd, sc.perObs)
	if err != nil {
		return nil, err
	}
	return r.analyzeCollected(sc.perObs, eb, sc)
}
