package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/diurnalnet/diurnal/internal/blockclass"
	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/dsp"
	"github.com/diurnalnet/diurnal/internal/integrity"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/outage"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
	"github.com/diurnalnet/diurnal/internal/stl"
	"github.com/diurnalnet/diurnal/internal/storage"
)

// cannedProber hands already-collected streams to the analysis kernel, so
// Config.AnalyzeBlockScratch runs the whole kernel on exactly the records
// the staged replica saw, with the same trust in their cleanliness the
// real prober earns.
type cannedProber struct {
	recs  [][]probe.Record
	clean bool
}

func (p *cannedProber) CollectInto(context.Context, *netsim.Block, int64, int64, [][]probe.Record) ([][]probe.Record, error) {
	return p.recs, nil
}

func (p *cannedProber) EmitsSanitizedRecords() bool { return p.clean }

// kernelStages are the spans of the staged replica that the kernel span
// covers in one call; the kernel minus their sum is the finish residual.
var kernelStages = []string{
	"reconstruct.sanitize", "reconstruct.repair", "reconstruct.merge", "reconstruct.resolve_contested",
	"reconstruct.reconstruct", "outage.from_records", "blockclass.classify", "reconstruct.resample",
	"stl.decompose", "changepoint.detect",
}

// scanSection traces the batch scan one block at a time on one goroutine.
// Each block runs twice on the same records: through a staged replica of
// the analysis kernel built only from the layers' exported functions, one
// span per stage, and through the kernel itself; the two must agree bit
// for bit, which proves the stages measure the work the kernel does.
//
// The replica mirrors the kernel's unexported defaults: the baseline is
// the analysis window, CUSUM drift is 0.004 per hourly sample, and STL
// runs with a weekly period, trend span period+25, periodic seasonal. In
// the pipeline integrity.Check runs inside the prober wrapper, on the raw
// streams before Sanitize; the replica keeps that order.
type scanSection struct {
	e      *env
	world  []*dataset.WorldBlock
	cfg    core.Config
	prober core.Prober
	// clean: the prober's streams are sanitary by construction, so the
	// kernel skips Sanitize (probe.Engine yes, ReplayProber no).
	clean       bool
	collectSpan string
	// ownsKernel: this section reports the kernel-stage metrics the two
	// scan sections share (the named workload's section does).
	ownsKernel bool
	// extra reports the section's own metrics.
	extra func(tr *tracer, r *result) error

	bufs, ref [][]probe.Record
	merged    []probe.Record
	class     *blockclass.Scratch
	ws        stl.Workspace
	kernel    *core.Scratch
	dsp       *dsp.Scratch
	resample  reconstruct.ResampleScratch

	// Counts of the latest pass.
	analysed, changeSensitive, decomposed, records, rawChanges, gated int
}

func newScanSection(e *env, world []*dataset.WorldBlock, cfg core.Config, prober core.Prober, clean bool, collectSpan string) *scanSection {
	return &scanSection{
		e: e, world: world, cfg: cfg, prober: prober, clean: clean, collectSpan: collectSpan,
		class: blockclass.NewScratch(), kernel: core.NewScratch(), dsp: dsp.NewScratch(),
	}
}

func (s *scanSection) pass(ctx context.Context, tr *tracer) error {
	s.analysed, s.changeSensitive, s.decomposed, s.records, s.rawChanges, s.gated = 0, 0, 0, 0, 0, 0
	for i, wb := range s.world {
		if err := s.block(ctx, tr, i, wb); err != nil {
			return fmt.Errorf("block %d (%s): %w", i, wb.ID, err)
		}
	}
	return nil
}

func (s *scanSection) block(ctx context.Context, tr *tracer, i int, wb *dataset.WorldBlock) error {
	eb := wb.EverActive()
	if len(eb) == 0 {
		return nil
	}
	cfg := s.cfg
	start, end := cfg.AnalysisStart, cfg.AnalysisEnd
	var (
		series     *reconstruct.Series
		cls        blockclass.Result
		dec        stl.Result
		normalized []float64
		err        error
	)

	root := tr.begin("scan.block", i)
	sp := tr.begin(s.collectSpan, i)
	s.bufs, err = s.prober.CollectInto(ctx, wb.Block, start, end, s.bufs)
	tr.end(sp)
	if err != nil {
		return err
	}
	for len(s.ref) < len(s.bufs) {
		s.ref = append(s.ref, nil)
	}
	s.ref = s.ref[:len(s.bufs)]
	for oi, stream := range s.bufs {
		s.ref[oi] = append(s.ref[oi][:0], stream...)
		s.records += len(stream)
	}
	if cfg.Integrity {
		sp = tr.begin("integrity.check", i)
		verdicts := integrity.Check(integrity.Config{}, s.bufs, eb, start, end)
		tr.end(sp)
		for oi := range verdicts {
			if verdicts[oi].Gated {
				s.gated++
				s.bufs[oi], s.ref[oi] = s.bufs[oi][:0], s.ref[oi][:0]
			}
		}
	}
	if cfg.SanitizeRecords && !s.clean {
		sp = tr.begin("reconstruct.sanitize", i)
		for oi := range s.bufs {
			s.bufs[oi], _ = reconstruct.Sanitize(s.bufs[oi], start, end)
		}
		tr.end(sp)
	}
	if cfg.Repair {
		sp = tr.begin("reconstruct.repair", i)
		for _, stream := range s.bufs {
			reconstruct.Repair1Loss(stream)
		}
		tr.end(sp)
	}
	sp = tr.begin("reconstruct.merge", i)
	s.merged = reconstruct.MergeInto(s.merged, s.bufs)
	tr.end(sp)
	if cfg.Integrity {
		sp = tr.begin("reconstruct.resolve_contested", i)
		s.merged = reconstruct.ResolveContested(s.merged)
		tr.end(sp)
	}
	sp = tr.begin("reconstruct.reconstruct", i)
	series, err = reconstruct.Reconstruct(s.merged, eb)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("outage.from_records", i)
	_, _ = outage.FromRecords(s.merged, 0, outage.Params{}) // as in the kernel, an error means no outage masking
	tr.end(sp)
	sp = tr.begin("blockclass.classify", i)
	cls, err = blockclass.ClassifyScratch(series, start, end, cfg.Class, s.class)
	tr.end(sp)
	if err != nil {
		return err
	}
	s.analysed++
	if cls.ChangeSensitive {
		s.changeSensitive++
		sp = tr.begin("reconstruct.resample", i)
		resampled, _ := series.ResampleWithGaps(start, end, cfg.SampleStep, int64(cfg.MaxGapHours)*3600)
		tr.end(sp)
		period := int(7 * netsim.SecondsPerDay / cfg.SampleStep)
		if resampled != nil && len(resampled) >= 2*period {
			opts := stl.DefaultOpts(period)
			opts.Outer = cfg.STLOuter
			opts.Trend = period + 25
			opts.Periodic = true
			sp = tr.begin("stl.decompose", i)
			err = s.ws.DecomposeInto(&dec, resampled, opts)
			tr.end(sp)
			if err != nil {
				return err
			}
			cusum := changepoint.DefaultOpts()
			cusum.Drift = 0.004
			sp = tr.begin("changepoint.detect", i)
			normalized = changepoint.Normalize(dec.Trend)
			changes, err := changepoint.Detect(normalized, cusum)
			tr.end(sp)
			if err != nil {
				return err
			}
			s.decomposed++
			s.rawChanges += len(changes)
		}
	}
	tr.end(root)

	// The kernel itself, on the untouched copy of the same records.
	sp = tr.begin("core.analyze_collected", i)
	a, err := cfg.AnalyzeBlockScratch(ctx, &cannedProber{recs: s.ref, clean: s.clean}, wb.Block, s.kernel)
	tr.end(sp)
	if err != nil {
		return err
	}
	switch {
	case !slices.Equal(a.Series.Times, series.Times) || !sameBits(a.Series.Counts, series.Counts):
		return fmt.Errorf("gate: staged replica reconstructs a different Series than the kernel")
	case a.Class != cls:
		return fmt.Errorf("gate: staged replica classifies %+v, kernel %+v", cls, a.Class)
	case !sameBits(a.Trend, dec.Trend) || !sameBits(a.Seasonal, dec.Seasonal) || !sameBits(a.Normalized, normalized):
		return fmt.Errorf("gate: staged replica's Trend/Seasonal/Normalized differ from the kernel's")
	}

	// One diurnal test as classify runs it, on its own: the first 28-day
	// segment of the baseline.
	if cls.Responsive {
		segEnd := min(end, start+int64(cfg.Class.SegmentDays)*netsim.SecondsPerDay)
		if seg := series.ResampleInto(&s.resample, start, segEnd, cfg.Class.SampleStep); seg != nil {
			sp = tr.begin("dsp.diurnal_stats", i)
			_, _ = s.dsp.DiurnalStats(seg, dsp.DiurnalScoreOpts{ // an error means the segment is too short to test
				SampleInterval: float64(cfg.Class.SampleStep),
				Period:         netsim.SecondsPerDay,
				Harmonics:      cfg.Class.Harmonics,
			})
			tr.end(sp)
		}
	}
	return nil
}

// sameBits compares two float series bit for bit, nil equal to empty.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func (s *scanSection) report(tr *tracer, r *result) error {
	self := tr.self()
	n := len(self["scan.block"])
	if s.ownsKernel {
		set := func(metric, spanName string) { r.setSpans(metric, self[spanName], time.Microsecond) }
		set("reconstruct.repair_us_per_block", "reconstruct.repair")
		set("reconstruct.merge_us_per_block", "reconstruct.merge")
		set("reconstruct.reconstruct_us_per_block", "reconstruct.reconstruct")
		set("reconstruct.resample_us_per_cs_block", "reconstruct.resample")
		set("outage.from_records_us_per_block", "outage.from_records")
		set("blockclass.classify_us_per_block", "blockclass.classify")
		set("dsp.diurnal_stats_us_per_series", "dsp.diurnal_stats")
		set("stl.decompose_us_per_cs_block", "stl.decompose")
		set("changepoint.detect_us_per_cs_block", "changepoint.detect")
		set("core.analyze_collected_us_per_block", "core.analyze_collected")
		r.set("blockclass.change_sensitive_frac", float64(s.changeSensitive)/float64(max(s.analysed, 1)), s.analysed)
		r.set("changepoint.raw_changes_per_cs_block", float64(s.rawChanges)/float64(max(s.decomposed, 1)), s.decomposed)

		// Per block: the kernel's time minus the stages it is made of.
		staged := map[int]int64{}
		kernel := map[int]int64{}
		var stagedSum, kernelSum int64
		for i := range tr.spans {
			sp := &tr.spans[i]
			d := sp.EndNs - sp.StartNs
			if sp.Name == "core.analyze_collected" {
				kernel[sp.Item] = d
				kernelSum += d
			} else if slices.Contains(kernelStages, sp.Name) {
				staged[sp.Item] += d
				stagedSum += d
			}
		}
		residual := make([]float64, 0, len(kernel))
		for item, k := range kernel {
			residual = append(residual, float64(k-staged[item])/1e3)
		}
		r.set("core.finish_residual_us_per_block", median(residual), len(residual))
		s.e.logf("traced scan (%s): staged stages cover %.1f%% of the kernel's time over %d blocks; the rest is the finish residual",
			s.collectSpan, 100*float64(stagedSum)/float64(max(kernelSum, 1)), n)
	}
	return s.extra(tr, r)
}

// timeScan runs one pipeline scan and returns its wall time.
func timeScan(ctx context.Context, p *core.Pipeline, world []*dataset.WorldBlock) (*core.WorldResult, time.Duration, error) {
	t0 := time.Now()
	res, err := p.Run(ctx, world)
	wall := time.Since(t0)
	if err == nil && (res.Report.Degraded() || len(res.Report.BlockErrors) > 0) {
		err = fmt.Errorf("gate: clean scan finished degraded")
	}
	return res, wall, err
}

// newSimSection is scan_sim's traced section: live probing, no optional
// layer. Besides the staged replica it measures the pipeline around the
// kernel: one worker against two, scheduling overhead, allocation.
func newSimSection(ctx context.Context, e *env, blocks int, ownsKernel bool) (section, error) {
	builds := make([]float64, 5)
	var world []*dataset.WorldBlock
	for i := range builds {
		t0 := time.Now()
		w, err := e.world(blocks)
		builds[i] = msOf(time.Since(t0))
		if err != nil {
			return nil, err
		}
		world = w
	}
	eng, err := e.engine()
	if err != nil {
		return nil, err
	}
	s := newScanSection(e, world, e.cfg, eng, true, "probe.collect")
	s.ownsKernel = ownsKernel
	s.extra = func(tr *tracer, r *result) error {
		self := tr.self()
		r.set("netsim.build_world_ms", median(builds), len(builds))
		r.setSpans("probe.collect_us_per_block", self["probe.collect"], time.Microsecond)
		r.set("probe.records_per_block", float64(s.records)/float64(max(s.analysed, 1)), s.analysed)

		// One worker, with the allocator watched.
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		_, wall1, err := timeScan(ctx, &core.Pipeline{Config: e.cfg, Engine: eng, Workers: 1}, world)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		nb := float64(len(world))
		r.set("core.workers1_blocks_per_s", nb/wall1.Seconds(), len(world))
		r.set("core.alloc_kb_per_block", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/nb, len(world))
		r.set("core.allocs_per_block", float64(m1.Mallocs-m0.Mallocs)/nb, len(world))

		// The workload's own schedule.
		res, wallN, err := timeScan(ctx, &core.Pipeline{Config: e.cfg, Engine: eng, Workers: e.generators}, world)
		if err != nil {
			return err
		}
		g := float64(e.generators)
		r.set("core.scaling_efficiency", (nb/wallN.Seconds())/(g*nb/wall1.Seconds()), len(world))
		var busy time.Duration
		for _, name := range []string{"probe.collect", "core.analyze_collected"} {
			for _, d := range self[name] {
				busy += d
			}
		}
		r.set("core.pipeline_overhead_frac", 1-busy.Seconds()/(g*wallN.Seconds()), len(world))

		t0 := time.Now()
		res.Reaggregate()
		r.set("core.aggregate_ms", msOf(time.Since(t0)), 1)
		t0 = time.Now()
		if _, err := res.Fingerprint(); err != nil {
			return err
		}
		r.set("core.fingerprint_ms", msOf(time.Since(t0)), 1)
		return nil
	}
	return s, nil
}

// newReplaySection is scan_replay_guarded's traced section: the archive,
// the replay decode, Sanitize, the integrity firewall and the checkpoint
// journal, plus one unguarded scan of the same archive for the cost of
// the guard.
func newReplaySection(ctx context.Context, e *env, blocks int, ownsKernel bool) (section, error) {
	dir := filepath.Join(e.dir, "trace-store")
	t0 := time.Now()
	g, err := archive(e, blocks, dir)
	archiveWall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	archiveBytes, err := storage.TreeBytes(dir)
	if err != nil {
		return nil, err
	}
	cfg := e.cfg
	cfg.Integrity = true
	s := newScanSection(e, g.world, cfg, g.rp, false, "dataset.replay_collect")
	s.ownsKernel = ownsKernel
	s.extra = func(tr *tracer, r *result) error {
		defer g.discard()
		self := tr.self()
		nb := float64(len(g.world))
		set := func(metric, spanName string) { r.setSpans(metric, self[spanName], time.Microsecond) }
		r.set("dataset.archive_ms_per_block", msOf(archiveWall)/nb, len(g.world))
		r.set("dataset.bytes_per_block", float64(archiveBytes)/nb, len(g.world))
		set("dataset.replay_collect_us_per_block", "dataset.replay_collect")
		set("reconstruct.sanitize_us_per_block", "reconstruct.sanitize")
		set("reconstruct.resolve_contested_us_per_block", "reconstruct.resolve_contested")
		set("integrity.check_us_per_block", "integrity.check")

		// Guarded against plain, on the same archive.
		journal := filepath.Join(e.dir, "trace.ckpt")
		_, plainWall, err := timeScan(ctx, &core.Pipeline{Config: e.cfg, Engine: g.rp, Workers: e.generators}, g.world)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := g.scan(ctx, journal)
		guardedWall := time.Since(t0)
		if err != nil {
			return err
		}
		r.set("core.guard_overhead_ratio", guardedWall.Seconds()/plainWall.Seconds(), len(g.world))
		r.set("integrity.gated_streams", float64(len(res.Report.GatedStreams)+s.gated), len(g.world))

		// The journal that scan left: its size, and reading it back.
		info, err := os.Stat(journal)
		if err != nil {
			return err
		}
		r.set("core.checkpoint.bytes_per_block", float64(info.Size())/nb, len(g.world))
		t0 = time.Now()
		_, entries, torn, err := core.ReadCheckpoint(journal)
		r.set("core.checkpoint.read_ms", msOf(time.Since(t0)), 1)
		if err != nil {
			return err
		}
		if len(entries) != res.Report.AnalyzedBlocks || torn != 0 {
			return fmt.Errorf("gate: journal holds %d entries (%d torn bytes) for %d analysed blocks", len(entries), torn, res.Report.AnalyzedBlocks)
		}
		if err := os.Remove(journal); err != nil {
			return err
		}
		// Appends, one by one.
		cp, err := core.OpenCheckpoint(journal)
		if err != nil {
			return err
		}
		appends := make([]time.Duration, 0, len(res.Blocks))
		for i := range res.Blocks {
			t0 := time.Now()
			err := cp.Append(i, res.Blocks[i])
			appends = append(appends, time.Since(t0))
			if err != nil {
				cp.Close()
				return err
			}
		}
		r.setSpans("core.checkpoint.append_us_per_block", appends, time.Microsecond)
		if err := cp.Close(); err != nil {
			return err
		}
		return os.Remove(journal)
	}
	return s, nil
}
