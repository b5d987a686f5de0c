package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/health"
	"github.com/diurnalnet/diurnal/internal/serve"
)

// scanFailures counts the blocks a finished scan failed: blocks with a
// BlockError or a dead letter, or every block when the run is degraded.
func scanFailures(res *core.WorldResult) int {
	if res.Report.Degraded() {
		return len(res.Blocks)
	}
	return len(res.Report.BlockErrors) + len(res.Report.DeadLettered)
}

// fingerprintOf wraps WorldResult.Fingerprint with the gate's context.
func fingerprintOf(what string, res *core.WorldResult) (string, error) {
	fp, err := res.Fingerprint()
	if err != nil {
		return "", fmt.Errorf("fingerprinting %s: %w", what, err)
	}
	return fp, nil
}

// scanTimes collects what the two scan workloads time per iteration.
type scanTimes struct {
	walls, handoffs []float64 // ms
	cpu             time.Duration
	blocks          int // analysed over all timed iterations
}

// scanned books one timed scan.
func (t *scanTimes) scanned(r *result, res *core.WorldResult, wall, cpu time.Duration) {
	t.walls = append(t.walls, msOf(wall))
	t.cpu += cpu
	t.blocks += len(res.Blocks)
	r.Attempted += len(res.Blocks)
	r.Failed += scanFailures(res)
}

// report turns the samples into the end-to-end metrics.
func (t *scanTimes) report(r *result, setup float64, blocksPerScan int) {
	n := len(t.walls)
	p50 := median(t.walls)
	r.set("setup_s", setup, setupReps)
	r.set("throughput_per_s", float64(blocksPerScan)/(p50/1000), n)
	r.set("latency_ms_p50", p50, n)
	r.set("latency_ms_tail", quantile(t.walls, 0.9), n)
	r.set("handoff_ms", median(t.handoffs), len(t.handoffs))
	r.set("cpu_us_per_op", usOf(t.cpu)/float64(t.blocks), n)
}

// runScanSim is the repository's historical headline at a size with a
// usable noise band: live simulated probing through core.Pipeline.Run
// with no optional layer. The engine is a clean prober, so Sanitize is
// skipped; netsim and probe do about a third of the work.
func runScanSim(e *env, r *result) error {
	ctx := context.Background()
	n := e.simBlocks()
	var (
		world []*dataset.WorldBlock
		pipe  *core.Pipeline
		warm  *core.WorldResult
	)
	setup, err := setupMedian(func(int) error {
		w, err := e.world(n)
		if err != nil {
			return err
		}
		eng, err := e.engine()
		if err != nil {
			return err
		}
		world, pipe = w, &core.Pipeline{Config: e.cfg, Engine: eng, Workers: e.generators}
		warm, err = pipe.Run(ctx, world)
		return err
	})
	if err != nil {
		return err
	}
	warmFP, err := fingerprintOf("warm-up scan", warm)
	if err != nil {
		return err
	}
	warm = nil

	sig := core.RunSignature(e.cfg, world)
	snapDir := filepath.Join(e.dir, "handoff")
	var t scanTimes
	_, err = timedLoop(e.seconds, func(i int) error {
		c0, t0 := cpuTime(), time.Now()
		res, err := pipe.Run(ctx, world)
		wall, cpu := time.Since(t0), cpuTime()-c0
		if err != nil {
			return err
		}
		t.scanned(r, res, wall, cpu)
		// Hand-off: the finished result becomes a durable snapshot the
		// serving plane can load (encode + atomic write).
		runtime.GC() // as in timedLoop
		t0 = time.Now()
		path, err := serve.WriteSnapshot(snapDir, res, sig, e.spec.Start, e.spec.End())
		t.handoffs = append(t.handoffs, msOf(time.Since(t0)))
		if err != nil {
			return err
		}
		if err := os.Remove(path); err != nil {
			return err
		}
		// Gates: clean data degrades nothing, and the scan is
		// deterministic. Every iteration is checked cheaply; the first is
		// fingerprinted against the warm-up, and no result is kept, so
		// the resident set is the pipeline's own.
		if res.Report.Degraded() || res.Report.AnalyzedBlocks != len(world) {
			return fmt.Errorf("gate: clean scan finished degraded: %d of %d blocks analysed", res.Report.AnalyzedBlocks, len(world))
		}
		if i > 0 {
			return nil
		}
		fp, err := fingerprintOf("first timed scan", res)
		if err != nil {
			return err
		}
		if fp != warmFP {
			return fmt.Errorf("gate: scan fingerprint changed between iterations: %s != %s", fp[:16], warmFP[:16])
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Gate: the batched two-worker schedule computes what the scalar
	// one-worker schedule computes.
	ref, err := (&core.Pipeline{Config: e.cfg, Engine: pipe.Engine, Workers: 1, BatchSize: 1}).Run(ctx, world)
	if err != nil {
		return fmt.Errorf("reference scan: %w", err)
	}
	refFP, err := fingerprintOf("reference scan", ref)
	if err != nil {
		return err
	}
	if refFP != warmFP {
		return fmt.Errorf("gate: batched scan %s differs from the scalar one-worker scan %s", warmFP[:16], refFP[:16])
	}
	e.logf("scan_sim: %d blocks x %d scans, fingerprint %s", n, len(t.walls), warmFP[:16])
	t.report(r, setup, n)
	return nil
}

// guarded is scan_replay_guarded's fixture: one archived world and the
// replay prober over it.
type guarded struct {
	e     *env
	world []*dataset.WorldBlock
	store *dataset.Store
	rp    *dataset.ReplayProber
}

// archive builds the world and archives it with dataset.CreateStore.
func archive(e *env, blocks int, dir string) (*guarded, error) {
	world, err := e.world(blocks)
	if err != nil {
		return nil, err
	}
	eng, err := e.engine()
	if err != nil {
		return nil, err
	}
	store, err := dataset.CreateStore(dir, e.spec, eng, world)
	if err != nil {
		return nil, err
	}
	rp, err := store.Replay()
	if err != nil {
		return nil, err
	}
	return &guarded{e: e, world: world, store: store, rp: rp}, nil
}

// discard unmaps and deletes the archive.
func (g *guarded) discard() error {
	if err := g.store.Close(); err != nil {
		return err
	}
	return os.RemoveAll(g.store.Dir())
}

// pipeline arms every optional layer of the batch pipeline over the
// replay prober: integrity firewall, runtime breakers seeded by the
// suspect pre-scan, and (when cp is non-nil) the checkpoint journal.
func (g *guarded) pipeline(cp *core.Checkpointer) *core.Pipeline {
	cfg := g.e.cfg
	cfg.Integrity = true
	breaker := health.DefaultBreaker()
	return &core.Pipeline{
		Config:          cfg,
		Engine:          g.rp,
		Workers:         g.e.generators,
		Breaker:         &breaker,
		ExcludeSuspects: true,
		Checkpoint:      cp,
	}
}

// scan is one guarded scan from input to complete WorldResult: open the
// journal at path (fresh, or full for a restart), run, close the journal.
func (g *guarded) scan(ctx context.Context, path string) (*core.WorldResult, error) {
	cp, err := core.OpenCheckpoint(path)
	if err != nil {
		return nil, err
	}
	res, err := g.pipeline(cp).Run(ctx, g.world)
	if cerr := cp.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// runScanReplayGuarded bypasses netsim and probe entirely and puts most
// of the time in dataset decode, Sanitize, integrity, the prober wrapper
// chain and the checkpoint journal: the same analysis kernel as scan_sim
// behind different front and back ends.
func runScanReplayGuarded(e *env, r *result) error {
	ctx := context.Background()
	n := e.replayBlocks()
	journal := filepath.Join(e.dir, "scan.ckpt")
	var (
		g     *guarded
		stale []*guarded // earlier repetitions' archives, deleted outside the timing
	)
	setup, err := setupMedian(func(rep int) error {
		if g != nil {
			stale = append(stale, g)
		}
		var err error
		if g, err = archive(e, n, filepath.Join(e.dir, fmt.Sprintf("store-%d", rep))); err != nil {
			return err
		}
		if _, err := g.scan(ctx, journal); err != nil {
			return err
		}
		return os.Remove(journal)
	})
	if err != nil {
		return err
	}
	defer g.store.Close()
	for _, old := range stale {
		if err := old.discard(); err != nil {
			return err
		}
	}

	var (
		t         scanTimes
		guardedFP string
	)
	_, err = timedLoop(e.seconds, func(i int) error {
		c0, t0 := cpuTime(), time.Now()
		res, err := g.scan(ctx, journal)
		wall, cpu := time.Since(t0), cpuTime()-c0
		if err != nil {
			return err
		}
		t.scanned(r, res, wall, cpu)
		// Gates: clean data gates nothing and degrades nothing.
		analysed := res.Report.AnalyzedBlocks
		if res.Report.Degraded() || len(res.Report.GatedStreams) > 0 || analysed != len(g.world) {
			return fmt.Errorf("gate: clean guarded scan finished degraded (gated observers %v, %d of %d blocks analysed)",
				res.Report.GatedStreams, analysed, len(g.world))
		}
		if i == 0 {
			if guardedFP, err = fingerprintOf("guarded scan", res); err != nil {
				return err
			}
		}
		// Hand-off: a restarted process picks the finished run up from
		// its journal (read, decode, restore every block). Like a restarted
		// process it holds nothing of the first life.
		res = nil
		runtime.GC() // as in timedLoop
		t0 = time.Now()
		again, err := g.scan(ctx, journal)
		t.handoffs = append(t.handoffs, msOf(time.Since(t0)))
		if err != nil {
			return err
		}
		if again.Report.ResumedBlocks != analysed {
			return fmt.Errorf("gate: restart restored %d of %d journaled blocks", again.Report.ResumedBlocks, analysed)
		}
		return os.Remove(journal)
	})
	if err != nil {
		return err
	}

	// Gate: the guarded replay computes exactly what a plain live scan of
	// the same blocks computes.
	eng, err := e.engine()
	if err != nil {
		return err
	}
	live, err := (&core.Pipeline{Config: e.cfg, Engine: eng, Workers: e.generators}).Run(ctx, g.world)
	if err != nil {
		return fmt.Errorf("live reference scan: %w", err)
	}
	liveFP, err := fingerprintOf("live reference scan", live)
	if err != nil {
		return err
	}
	if guardedFP != liveFP {
		return fmt.Errorf("gate: guarded replay %s differs from the live scan %s of the same blocks", guardedFP[:16], liveFP[:16])
	}
	e.logf("scan_replay_guarded: %d blocks x %d scans, fingerprint %s", n, len(t.walls), guardedFP[:16])
	t.report(r, setup, n)
	return nil
}
