package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/health"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// floatsSame compares float slices bitwise, so NaN gap markers compare
// equal to themselves instead of poisoning the parity check.
func floatsSame(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// analysesSame is bit-level equality over two BlockAnalysis values.
func analysesSame(a, b *BlockAnalysis) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if (a.Series == nil) != (b.Series == nil) {
		return false
	}
	if a.Series != nil {
		if !reflect.DeepEqual(a.Series.Times, b.Series.Times) || !floatsSame(a.Series.Counts, b.Series.Counts) {
			return false
		}
	}
	return a.Class == b.Class &&
		floatsSame(a.Resampled, b.Resampled) &&
		floatsSame(a.Trend, b.Trend) &&
		floatsSame(a.Seasonal, b.Seasonal) &&
		floatsSame(a.Normalized, b.Normalized) &&
		reflect.DeepEqual(a.Changes, b.Changes) &&
		reflect.DeepEqual(a.OutagePairs, b.OutagePairs) &&
		reflect.DeepEqual(a.LowConfChanges, b.LowConfChanges) &&
		reflect.DeepEqual(a.Confidence, b.Confidence) &&
		a.Sanitize == b.Sanitize &&
		reflect.DeepEqual(a.Outages, b.Outages) &&
		a.SampleStart == b.SampleStart &&
		a.SampleStep == b.SampleStep
}

// failedIDs returns the failed blocks' IDs in ascending order, so failure
// lists compare across runs that saw the world in different orders.
func failedIDs(errs []BlockError) []netsim.BlockID {
	ids := make([]netsim.BlockID, len(errs))
	for i, e := range errs {
		ids[i] = e.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// requireSameRun demands bit-identical outcomes, reports, and world
// aggregates from two runs over the same set of blocks. Blocks are matched
// by ID, so the runs may have seen the world in different orders.
func requireSameRun(t *testing.T, label string, want, got *WorldResult, errWant, errGot error) {
	t.Helper()
	if (errWant == nil) != (errGot == nil) {
		t.Fatalf("%s: error divergence: %v vs %v", label, errWant, errGot)
	}
	if want == nil || got == nil {
		return
	}
	if len(want.Blocks) != len(got.Blocks) {
		t.Fatalf("%s: block count %d vs %d", label, len(want.Blocks), len(got.Blocks))
	}
	byID := make(map[netsim.BlockID]*BlockOutcome, len(got.Blocks))
	for i := range got.Blocks {
		byID[got.Blocks[i].ID] = &got.Blocks[i]
	}
	for i := range want.Blocks {
		w := &want.Blocks[i]
		g := byID[w.ID]
		if g == nil || w.Place != g.Place || w.Observers != g.Observers {
			t.Fatalf("%s: block %s outcome metadata differs: %+v vs %+v", label, w.ID, w, g)
		}
		if !analysesSame(w.Analysis, g.Analysis) {
			t.Fatalf("%s: block %s analysis differs", label, w.ID)
		}
	}
	rw, rg := want.Report, got.Report
	if rw.AnalyzedBlocks != rg.AnalyzedBlocks {
		t.Fatalf("%s: AnalyzedBlocks %d vs %d", label, rw.AnalyzedBlocks, rg.AnalyzedBlocks)
	}
	if !reflect.DeepEqual(failedIDs(rw.BlockErrors), failedIDs(rg.BlockErrors)) {
		t.Fatalf("%s: BlockErrors differ: %v vs %v", label, rw.BlockErrors, rg.BlockErrors)
	}
	if !reflect.DeepEqual(failedIDs(rw.DeadLettered), failedIDs(rg.DeadLettered)) {
		t.Fatalf("%s: DeadLettered differ: %v vs %v", label, rw.DeadLettered, rg.DeadLettered)
	}
	shortfallIDs := func(res *WorldResult) []netsim.BlockID {
		ids := make([]netsim.BlockID, len(res.Report.QuorumShortfalls))
		for k, i := range res.Report.QuorumShortfalls {
			ids[k] = res.Blocks[i].ID
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	if !reflect.DeepEqual(shortfallIDs(want), shortfallIDs(got)) {
		t.Fatalf("%s: QuorumShortfalls %v vs %v", label, rw.QuorumShortfalls, rg.QuorumShortfalls)
	}
	if !reflect.DeepEqual(want.CellCS, got.CellCS) ||
		!reflect.DeepEqual(want.ContinentCS, got.ContinentCS) ||
		!reflect.DeepEqual(want.DownDaily, got.DownDaily) ||
		!reflect.DeepEqual(want.UpDaily, got.UpDaily) {
		t.Fatalf("%s: world aggregates differ", label)
	}
}

// requireRunParity checks the two invariances a per-block pipeline owes:
// the result must not depend on how many workers share the world, nor on
// the order the world lists its blocks in. The reference is a one-worker
// run; it is compared against a four-worker run and against a one-worker
// run over a seeded permutation of the world.
func requireRunParity(t *testing.T, mk func(workers int) *Pipeline, world []*dataset.WorldBlock) {
	t.Helper()
	ctx := context.Background()
	serial, errS := mk(1).Run(ctx, world)
	parallel, errP := mk(4).Run(ctx, world)
	requireSameRun(t, "1 vs 4 workers", serial, parallel, errS, errP)

	permuted := make([]*dataset.WorldBlock, len(world))
	for i, j := range rand.New(rand.NewSource(int64(len(world)))).Perm(len(world)) {
		permuted[i] = world[j]
	}
	shuffled, errH := mk(1).Run(ctx, permuted)
	requireSameRun(t, "world vs permuted world", serial, shuffled, errS, errH)
}

// TestRunInvarianceCleanWorld checks worker-count and block-order
// invariance over a full simulated world on the clean engine (the racy
// multi-worker run is what CI drives under the race detector).
func TestRunInvarianceCleanWorld(t *testing.T) {
	world := smallWorld(t, 36, 91)
	mk := func(workers int) *Pipeline {
		return &Pipeline{Config: q1Config(), Engine: engine4(), Workers: workers}
	}
	requireRunParity(t, mk, world)
}

// TestRunInvarianceFaultyWorld injects observer downtime, clock skew,
// corruption, and flaky collects — producing sanitize activity and
// NaN-bearing measurement gaps — and demands the invariances still hold.
// The faulty engine does not advertise clean streams, so this also covers
// the sanitize-enabled path.
func TestRunInvarianceFaultyWorld(t *testing.T) {
	world := smallWorld(t, 30, 92)
	mk := func(workers int) *Pipeline {
		eng := engine4()
		plan := faults.DefaultPlan(len(eng.Observers), 1, q1Start, 17)
		return &Pipeline{
			Config:  q1Config(),
			Engine:  &faults.Engine{Inner: eng, Plan: plan},
			Workers: workers,
		}
	}
	requireRunParity(t, mk, world)
}

// memDeadLetters is an in-memory DeadLetterer for the invariance tests.
type memDeadLetters struct {
	mu sync.Mutex
	m  map[netsim.BlockID]string
}

func (d *memDeadLetters) Lookup(index int, id netsim.BlockID) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.m[id]
	return r, ok
}

func (d *memDeadLetters) Record(index int, id netsim.BlockID, err error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.m == nil {
		d.m = map[netsim.BlockID]string{}
	}
	if _, ok := d.m[id]; !ok {
		d.m[id] = err.Error()
	}
	return nil
}

// TestRunInvariancePoisonDeadLetter mixes panicking poison blocks into the
// world with a dead-letter quarantine attached: each panic must stay
// contained to its own block, and the same blocks must be dead-lettered
// whatever the worker count or block order.
func TestRunInvariancePoisonDeadLetter(t *testing.T) {
	world := smallWorld(t, 30, 93)
	mk := func(workers int) *Pipeline {
		eng := engine4()
		return &Pipeline{
			Config: q1Config(),
			Engine: &faults.Engine{
				Inner: eng,
				Plan:  &faults.Plan{Seed: 5, Poison: &faults.Poison{Prob: 0.2}},
			},
			Workers:    workers,
			maxRetries: -1,
			DeadLetter: &memDeadLetters{},
		}
	}
	requireRunParity(t, mk, world)
}

// TestRunInvarianceQuorum runs with observer quorum tracking, checking
// the supervised commit path reports the same observer counts at every
// worker count.
func TestRunInvarianceQuorum(t *testing.T) {
	world := smallWorld(t, 24, 94)
	mk := func(workers int) *Pipeline {
		return &Pipeline{
			Config:  q1Config(),
			Engine:  engine4(),
			Workers: workers,
			Quorum:  2,
		}
	}
	requireRunParity(t, mk, world)
}

// failedCollects counts the collections its inner prober failed.
type failedCollects struct {
	inner  Prober
	failed atomic.Int64
}

func (f *failedCollects) CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]probe.Record) ([][]probe.Record, error) {
	bufs, err := f.inner.CollectInto(ctx, b, start, end, bufs)
	if err != nil {
		f.failed.Add(1)
	}
	return bufs, err
}

// TestSuspectPrescanWorkerInvariance holds the suspect pre-scan to its
// serial oracle for 1, 2 and 4 workers. Fingerprints leave out the three
// fields it decides — ExcludedObservers, ObserverRates and the breaker
// transitions it seeds — so requireRunParity cannot see a drift there.
// The world is the faulty one with the firewall and the breakers armed,
// and a spurious-collect fault fails the first collection of some
// sampled blocks (the run's retries then recover them), so the pre-scan
// must also skip the same blocks whatever the worker count.
func TestSuspectPrescanWorkerInvariance(t *testing.T) {
	ctx := context.Background()
	world := smallWorld(t, 30, 95)
	// The runtime breakers score blocks in commit order, which the
	// worker count changes. A tolerance no score can fall below and a
	// cooldown longer than the world keep them from acting, so the
	// transitions left are the ones the pre-scan seeded.
	breaker := health.BreakerConfig{Tol: 1, Cooldown: 1 << 20}
	mk := func(workers int) *Pipeline {
		eng := engine4()
		plan := faults.DefaultPlan(len(eng.Observers), 1, q1Start, 17)
		plan.Spurious = &faults.SpuriousCollect{Prob: 0.3}
		cfg := q1Config()
		cfg.Integrity = true
		return &Pipeline{
			Config:          cfg,
			Engine:          &faults.Engine{Inner: eng, Plan: plan},
			Workers:         workers,
			ExcludeSuspects: true,
			HealthSample:    12,
			Breaker:         &breaker,
		}
	}

	oracle := mk(1)
	counted := &failedCollects{inner: oracle.Engine}
	oracle.Engine = counted
	cfg, err := oracle.Config.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	wantExcluded, wantRates := (&run{p: oracle, cfg: cfg, world: world}).referenceSuspectObservers(ctx)
	if n := counted.failed.Load(); n == 0 || n >= 10 {
		t.Fatalf("the oracle's pre-scan failed %d of its 10 sampled blocks; the test needs some, not all", n)
	}
	if len(wantExcluded) == 0 {
		t.Fatal("the oracle excluded no observer; the faulty world should lose its broken one")
	}

	var wantTransitions []health.Transition
	for _, workers := range []int{1, 2, 4} {
		res, err := mk(workers).Run(ctx, world)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		rep := res.Report
		if !reflect.DeepEqual(rep.ExcludedObservers, wantExcluded) {
			t.Fatalf("%d workers: ExcludedObservers %v, oracle %v", workers, rep.ExcludedObservers, wantExcluded)
		}
		if !floatsSame(rep.ObserverRates, wantRates) {
			t.Fatalf("%d workers: ObserverRates %v, oracle %v", workers, rep.ObserverRates, wantRates)
		}
		if len(rep.BreakerTransitions) != len(wantExcluded) {
			t.Fatalf("%d workers: %d breaker transitions, want the %d the pre-scan seeded: %v",
				workers, len(rep.BreakerTransitions), len(wantExcluded), rep.BreakerTransitions)
		}
		if wantTransitions == nil {
			wantTransitions = rep.BreakerTransitions
		} else if !reflect.DeepEqual(rep.BreakerTransitions, wantTransitions) {
			t.Fatalf("%d workers: BreakerTransitions %v, 1 worker %v", workers, rep.BreakerTransitions, wantTransitions)
		}
	}
}

// inflightProber records the most collections it ever saw in flight.
type inflightProber struct {
	inner         Prober
	mu            sync.Mutex
	inflight, max int
}

func (p *inflightProber) CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]probe.Record) ([][]probe.Record, error) {
	p.mu.Lock()
	p.inflight++
	p.max = max(p.max, p.inflight)
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.inflight--
		p.mu.Unlock()
	}()
	return p.inner.CollectInto(ctx, b, start, end, bufs)
}

// TestSuspectPrescanHonoursWorkers checks that neither the pre-scan nor
// the run after it ever has more collections in flight than the run has
// workers: Workers is a run's one concurrency bound.
func TestSuspectPrescanHonoursWorkers(t *testing.T) {
	world := smallWorld(t, 16, 96)
	eng := &inflightProber{inner: engine4()}
	p := &Pipeline{Config: q1Config(), Engine: eng, Workers: 2, ExcludeSuspects: true}
	if _, err := p.Run(context.Background(), world); err != nil {
		t.Fatal(err)
	}
	if eng.max > 2 {
		t.Fatalf("%d collections in flight at once with 2 workers", eng.max)
	}
}
