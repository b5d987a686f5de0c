package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"github.com/diurnalnet/diurnal/internal/chaos"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/stream"
)

// StreamingResult records the streaming-daemon acceptance experiment: one
// world is analyzed three ways — batch, streamed uninterrupted, and
// streamed with repeated SIGKILLs — and the streaming contracts are
// checked: batch-identical final result, exact kill-and-resume event
// identity, the bounded-latency guarantee, and detection lag measured
// against the simulator's scheduled ground-truth events.
type StreamingResult struct {
	// Blocks is the world size; Rounds the number of daily rounds streamed.
	Blocks int
	Rounds int64
	// Events is the journaled event count of the uninterrupted run.
	Events int
	// EarlyEvents is how many were emitted before the final flush — actual
	// streaming detections, not retrospective ones.
	EarlyEvents int
	// BatchIdentical reports whether the streaming result fingerprint
	// equals the batch pipeline's.
	BatchIdentical bool
	// Incarnations is how many daemon lives the killed run took; Identical
	// whether its event log and result matched the uninterrupted run's.
	Incarnations int
	Identical    bool
	// LatencyBoundRounds is the contract bound (ConfirmRefreshes ×
	// RefreshEvery); MaxLatencyRounds the worst observed emit latency among
	// pre-final events. The contract holds iff Max ≤ Bound.
	LatencyBoundRounds, MaxLatencyRounds int64
	// TruthMatched counts events attributable to a scheduled simulator
	// event; MeanLagDays averages, over those, the days between the true
	// onset and the end of the round whose refresh emitted the event.
	TruthMatched int
	MeanLagDays  float64
}

// String renders the check as text.
func (r *StreamingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "streaming daemon over %d blocks, %d daily rounds:\n", r.Blocks, r.Rounds)
	verdict := func(ok bool) string {
		if ok {
			return "OK"
		}
		return "VIOLATED"
	}
	fmt.Fprintf(&b, "  %d events journaled (%d emitted mid-stream, before the final flush)\n", r.Events, r.EarlyEvents)
	fmt.Fprintf(&b, "  batch parity:    %s (streaming result fingerprint equals batch run)\n", verdict(r.BatchIdentical))
	fmt.Fprintf(&b, "  kill-and-resume: %s (%d daemon incarnations, exact event-log identity)\n", verdict(r.Identical), r.Incarnations)
	fmt.Fprintf(&b, "  latency bound:   %s (worst emit latency %d rounds, bound %d)\n",
		verdict(r.MaxLatencyRounds <= r.LatencyBoundRounds), r.MaxLatencyRounds, r.LatencyBoundRounds)
	fmt.Fprintf(&b, "  ground truth:    %d events matched scheduled changes, mean detection lag %.1f days\n",
		r.TruthMatched, r.MeanLagDays)
	return b.String()
}

// Streaming is the streaming-daemon acceptance experiment. A non-nil
// error means a streaming contract is broken.
func Streaming(opts Options) (*StreamingResult, error) {
	start, end := q1Window()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   opts.blocks(64),
		Seed:     opts.seed() + 31,
		Calendar: events.Year2020(),
		Start:    start,
		End:      end,
	})
	if err != nil {
		return nil, err
	}
	cc := core.DefaultConfig(start, end)
	cc.BaselineStart = start
	cc.BaselineEnd = netsim.Date(2020, time.January, 29)
	cfg := stream.Config{Core: cc, RefreshEvery: 7, ConfirmRefreshes: 2}
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}

	// Reference 1: the batch pipeline.
	batch, err := (&core.Pipeline{Config: cc, Engine: eng}).Run(opts.ctx(), world)
	if err != nil {
		return nil, fmt.Errorf("batch run: %w", err)
	}
	batchFP, err := batch.Fingerprint()
	if err != nil {
		return nil, err
	}

	// One collection, shared by every streaming leg: the feeder chops the
	// same records batch analyzed into daily rounds.
	feeder, err := stream.NewFeeder(opts.ctx(), eng, world, cfg)
	if err != nil {
		return nil, err
	}
	res := &StreamingResult{
		Blocks: len(world),
		Rounds: feeder.Rounds(),
	}

	tmp, err := os.MkdirTemp("", "diurnal-streaming")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Reference 2: the uninterrupted streaming run.
	ref, err := chaos.RunToEnd(opts.ctx(), chaos.Setup{Dir: tmp + "/ref", World: world, Feeder: feeder, Config: cfg}, nil)
	if err != nil {
		return nil, fmt.Errorf("uninterrupted streaming run: %w", err)
	}
	res.Events = len(ref.Events)
	res.BatchIdentical = ref.Fingerprint == batchFP
	if !res.BatchIdentical {
		return res, fmt.Errorf("streaming result diverged from batch: %s != %s", ref.Fingerprint[:16], batchFP[:16])
	}
	if len(ref.Events) == 0 {
		return res, fmt.Errorf("streaming run emitted no events; the checks are vacuous")
	}

	// Latency bound (RunToEnd has held the events to it) and
	// ground-truth lag over the reference events.
	res.EarlyEvents, res.MaxLatencyRounds, _ = chaos.CheckEvents(ref.Events, feeder.Rounds(), cfg)
	res.LatencyBoundRounds = cfg.LatencyBound()
	var lagSum float64
	for _, ev := range ref.Events {
		if onset, ok := truthOnset(world[ev.Block], ev.Change); ok {
			res.TruthMatched++
			frontier := start + (ev.EmitSeq+1)*netsim.SecondsPerDay
			lagSum += float64(frontier-onset) / float64(netsim.SecondsPerDay)
		}
	}
	if res.TruthMatched > 0 {
		res.MeanLagDays = lagSum / float64(res.TruthMatched)
	}

	// The killed run: SIGKILL (Abort) at seeded-random points until the
	// stream completes; every incarnation must resume to a journal that is
	// an exact prefix of the reference, and the final state must be
	// identical.
	killed := chaos.Setup{Dir: tmp + "/killed", World: world, Feeder: feeder, Config: cfg}
	run, err := chaos.KillLoop(opts.ctx(), killed, ref, chaos.Kills{Rng: rand.New(rand.NewSource(int64(opts.seed()))), Kill: true})
	res.Incarnations = run.Lives
	if err != nil {
		return res, fmt.Errorf("killed run: %w", err)
	}
	res.Identical = true
	return res, nil
}

// truthOnset matches an emitted change to the block's scheduled simulator
// events: a down change to an activity-suppressing event start (or an
// outage start), an up change to a recovery. Returns the true onset time.
func truthOnset(wb *dataset.WorldBlock, ch core.Change) (int64, bool) {
	slop := int64(events.MatchWindowDays) * netsim.SecondsPerDay
	for _, ev := range wb.Events() {
		var onset int64
		switch {
		case ch.Dir < 0:
			onset = ev.Start
		case ev.End != 0:
			onset = ev.End
		default:
			continue
		}
		if ch.Point >= onset-slop && ch.Point <= onset+slop {
			return onset, true
		}
	}
	return 0, false
}
