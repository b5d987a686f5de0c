package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"github.com/diurnalnet/diurnal/internal/chaos"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/serve"
	"github.com/diurnalnet/diurnal/internal/storage"
	"github.com/diurnalnet/diurnal/internal/stream"
)

// Longrun governance knobs, scaled so every mechanism fires at test
// size: 8 KiB segments force rotations within a quarter, the compaction
// threshold forces several base rewrites, and the disk budget is the
// fixed byte bound the whole run must live inside without shedding.
const (
	longrunSegmentBytes = 32 << 10
	longrunCompactBytes = 256 << 10
	longrunDiskBudget   = 8 << 20
	longrunQuarterDays  = 28
	longrunQuarters     = 3
	longrunRetain       = 2
)

// LongrunResult records the run-forever storage-governance experiment:
// a daemon is run quarter after quarter under a fixed disk budget with
// repeated SIGKILLs, each quarter's result is published into one
// retained snapshot directory, and the storage contracts are checked —
// resume identity across rotated/compacted WALs, a flat disk footprint,
// zero litter after every quarter is torn down, bounded snapshot
// retention, a refused publish once the serving budget is exhausted,
// and graceful ENOSPC shedding with a clean resume afterwards.
type LongrunResult struct {
	// Blocks is the per-quarter world size; Quarters how many back-to-back
	// windows were streamed; Rounds the daily rounds per quarter.
	Blocks   int
	Quarters int
	Rounds   int64
	// Incarnations is the total daemon lives across all killed quarters.
	Incarnations int
	// Rotations and Compactions total the WAL segment rollovers and
	// base-segment rewrites observed across every incarnation.
	Rotations, Compactions int64
	// Identical reports that every killed, governed quarter finished with
	// the exact event log and result fingerprint of its uninterrupted,
	// ungoverned reference run.
	Identical bool
	// DiskBudget is the per-daemon journal bound; PeakJournalBytes the
	// largest journal footprint any incarnation reported against it.
	DiskBudget       int64
	PeakJournalBytes int64
	// PeakTreeBytes is the largest whole-tree footprint observed at a
	// quarter boundary — the "flat disk" number that must not grow with
	// quarters streamed.
	PeakTreeBytes int64
	// SnapshotsKept and SnapshotsRetired count the retention pass: the
	// directory ends with at most the retained K, the rest deleted.
	SnapshotsKept, SnapshotsRetired int
	// LitterFiles counts files that survived teardown anywhere outside
	// the retained snapshots. Zero or the run failed.
	LitterFiles int
	// PublishRefused reports the over-budget publish was refused with
	// ErrDiskBudget instead of filling the disk.
	PublishRefused bool
	// PressureShed and ResumedAfterPressure report the ENOSPC leg: a
	// daemon on a fault-injected filesystem shed a round with
	// ErrDiskPressure, and a clean reopen of the same directory replayed
	// the torn journals and finished identical to the reference.
	PressureShed, ResumedAfterPressure bool
}

// String renders the check as text.
func (r *LongrunResult) String() string {
	var b strings.Builder
	verdict := func(ok bool) string {
		if ok {
			return "OK"
		}
		return "VIOLATED"
	}
	fmt.Fprintf(&b, "storage governance over %d quarters of %d rounds, %d blocks each:\n", r.Quarters, r.Rounds, r.Blocks)
	fmt.Fprintf(&b, "  resume identity: %s (%d incarnations, %d rotations, %d compactions)\n",
		verdict(r.Identical), r.Incarnations, r.Rotations, r.Compactions)
	fmt.Fprintf(&b, "  flat disk:       %s (peak journals %d of %d budget bytes, peak tree %d bytes)\n",
		verdict(r.PeakJournalBytes <= r.DiskBudget), r.PeakJournalBytes, r.DiskBudget, r.PeakTreeBytes)
	fmt.Fprintf(&b, "  retention:       %s (%d snapshots kept, %d retired, %d litter files)\n",
		verdict(r.SnapshotsKept <= longrunRetain && r.LitterFiles == 0), r.SnapshotsKept, r.SnapshotsRetired, r.LitterFiles)
	fmt.Fprintf(&b, "  publish budget:  %s (over-budget publish refused)\n", verdict(r.PublishRefused))
	fmt.Fprintf(&b, "  disk pressure:   %s (ENOSPC shed gracefully, clean reopen identical)\n",
		verdict(r.PressureShed && r.ResumedAfterPressure))
	return b.String()
}

// Longrun is the run-forever storage-governance acceptance experiment.
// A non-nil error means a governance contract is broken.
func Longrun(opts Options) (*LongrunResult, error) {
	start0, _ := q1Window()
	res := &LongrunResult{
		Blocks:     opts.blocks(32),
		Quarters:   longrunQuarters,
		Rounds:     longrunQuarterDays,
		DiskBudget: longrunDiskBudget,
		Identical:  true,
	}

	root, err := os.MkdirTemp("", "diurnal-longrun")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	snapDir := filepath.Join(root, "snaps")

	rng := rand.New(rand.NewSource(int64(opts.seed())))

	// Carried out of the quarter loop for the ENOSPC and publish-budget
	// legs, which replay the final quarter under induced failure.
	var (
		lastSetup chaos.Setup
		lastRef   *chaos.Outcome
		lastSig   []byte
		lastStart int64
		lastEnd   int64
	)

	for q := 0; q < longrunQuarters; q++ {
		qstart := start0 + int64(q)*longrunQuarterDays*netsim.SecondsPerDay
		qend := qstart + longrunQuarterDays*netsim.SecondsPerDay
		world, err := dataset.BuildWorld(dataset.WorldOpts{
			Blocks:   res.Blocks,
			Seed:     opts.seed() + 71 + uint64(q),
			Calendar: events.Year2020(),
			Start:    qstart,
			End:      qend,
		})
		if err != nil {
			return nil, err
		}
		cc := core.DefaultConfig(qstart, qend)
		cc.BaselineStart = qstart
		cc.BaselineEnd = qstart + 14*netsim.SecondsPerDay
		cfg := stream.Config{Core: cc, RefreshEvery: 7, ConfirmRefreshes: 2}
		eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed() + uint64(q)}
		feeder, err := stream.NewFeeder(opts.ctx(), eng, world, cfg)
		if err != nil {
			return nil, err
		}

		// Reference: the same quarter streamed uninterrupted with no
		// governance at all. Governance must not change results, only
		// bound disk.
		refDir := filepath.Join(root, fmt.Sprintf("q%d-ref", q))
		ref, err := chaos.RunToEnd(opts.ctx(), chaos.Setup{Dir: refDir, World: world, Feeder: feeder, Config: cfg}, nil)
		if err != nil {
			return res, fmt.Errorf("quarter %d reference run: %w", q, err)
		}

		// The governed run, killed at seeded-random points: every life's
		// rotations, compactions and footprint are accounted, and no
		// round may be shed under a budget sized for the steady
		// compacted state.
		gcfg := cfg
		gcfg.SegmentBytes = longrunSegmentBytes
		gcfg.CompactBytes = longrunCompactBytes
		gcfg.DiskBudget = longrunDiskBudget
		runDir := filepath.Join(root, fmt.Sprintf("q%d-run", q))
		account := func(st stream.Stats) error {
			res.Rotations += st.Rotations
			res.Compactions += st.Compactions
			res.PeakJournalBytes = max(res.PeakJournalBytes, st.DiskBytes)
			if st.PressureSheds > 0 {
				return fmt.Errorf("%d rounds shed under a sufficient budget: %s", st.PressureSheds, st.LastStorageErr)
			}
			return nil
		}
		run, err := chaos.KillLoop(opts.ctx(), chaos.Setup{Dir: runDir, World: world, Feeder: feeder, Config: gcfg}, ref,
			chaos.Kills{Rng: rng, Kill: true, Account: account})
		if err != nil {
			res.Identical = false
			return res, fmt.Errorf("quarter %d governed run: %w", q, err)
		}
		res.Incarnations += run.Lives

		// Publish the quarter into the shared snapshot directory and run
		// the retention pass: the directory holds at most the last K
		// quarters no matter how long the run goes.
		sig := core.RunSignature(cc, world)
		if _, err := serve.WriteSnapshot(snapDir, run.Result, sig, qstart, qend); err != nil {
			return res, fmt.Errorf("quarter %d publish: %w", q, err)
		}
		retired, err := serve.RetainSnapshots(storage.OS, snapDir, longrunRetain, nil)
		if err != nil {
			return res, fmt.Errorf("quarter %d retention: %w", q, err)
		}
		res.SnapshotsRetired += len(retired)

		// Tear the quarter's daemon directories down — a run-forever
		// deployment cannot keep per-quarter journals — and check the
		// whole tree stays flat: retained snapshots only, no growth.
		if err := os.RemoveAll(refDir); err != nil {
			return res, err
		}
		if err := os.RemoveAll(runDir); err != nil {
			return res, err
		}
		tree, err := storage.TreeBytes(root)
		if err != nil {
			return res, err
		}
		if tree > res.PeakTreeBytes {
			res.PeakTreeBytes = tree
		}

		lastSetup = chaos.Setup{Dir: filepath.Join(root, "enospc"), World: world, Feeder: feeder, Config: cfg}
		lastRef, lastSig = ref, sig
		lastStart, lastEnd = qstart, qend
	}

	// ENOSPC leg: replay the final quarter on a filesystem with a fixed
	// write budget. The daemon must shed with ErrDiskPressure — journals
	// intact, process alive — and a clean reopen of the same directory
	// must replay whatever (possibly torn) prefix survived and finish
	// identical to the reference.
	if err := longrunPressure(opts, lastSetup, lastRef, res); err != nil {
		return res, err
	}

	// Publish-budget leg: a server given a budget smaller than one
	// snapshot must refuse the publish with ErrDiskBudget after its GC
	// pass, not write past the bound.
	srv := serve.New(serve.Config{Dir: snapDir, ExpectSignature: lastSig, Retain: longrunRetain, DiskBudget: 1})
	_, err = srv.Publish(lastRef.Result, lastSig, lastStart, lastEnd)
	if !errors.Is(err, serve.ErrDiskBudget) {
		srv.Close()
		return res, fmt.Errorf("over-budget publish: got %v, want ErrDiskBudget", err)
	}
	res.PublishRefused = srv.StatsNow().PublishRefused > 0
	srv.Close()
	if !res.PublishRefused {
		return res, fmt.Errorf("refused publish was not counted in server stats")
	}

	// Zero-litter audit: after every quarter is torn down the tree holds
	// exactly the retained snapshots — every other file is litter.
	entries, err := os.ReadDir(root)
	if err != nil {
		return res, err
	}
	for _, e := range entries {
		if e.Name() != "snaps" {
			res.LitterFiles++
		}
	}
	snaps, err := os.ReadDir(snapDir)
	if err != nil {
		return res, err
	}
	for _, e := range snaps {
		if e.Type().IsRegular() && strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".snap") {
			res.SnapshotsKept++
			continue
		}
		res.LitterFiles++
	}
	if res.LitterFiles > 0 {
		return res, fmt.Errorf("%d litter files survived teardown under %s", res.LitterFiles, root)
	}
	if res.SnapshotsKept == 0 || res.SnapshotsKept > longrunRetain {
		return res, fmt.Errorf("retention kept %d snapshots, want 1..%d", res.SnapshotsKept, longrunRetain)
	}
	if res.Rotations == 0 || res.Compactions == 0 {
		return res, fmt.Errorf("governance never fired: %d rotations, %d compactions", res.Rotations, res.Compactions)
	}
	return res, nil
}

// longrunPressure runs the ENOSPC leg: the final quarter replayed on a
// write-budgeted faults.FS until a round is shed, then a clean reopen
// that must finish identical to the reference.
func longrunPressure(opts Options, s chaos.Setup, ref *chaos.Outcome, res *LongrunResult) error {
	fcfg := s.Config
	fcfg.SegmentBytes = longrunSegmentBytes
	fcfg.FS = &faults.FS{Plan: faults.FSPlan{WriteBudget: 16 << 10}}

	d, err := stream.Open(s.Dir, s.World, s.Feeder.Observers(), fcfg)
	if err != nil {
		return fmt.Errorf("disk-pressure open: %w", err)
	}
	// Deliberately not Started: with no analysis loop the only writes are
	// ingest appends, so the first failure the fault plan forces is the
	// one under test, not a background event journal write.
	for seq := int64(0); seq < s.Feeder.Rounds() && err == nil; seq++ {
		var r *stream.Round
		if r, err = s.Feeder.Round(seq); err == nil {
			err = d.Ingest(opts.ctx(), r)
		}
	}
	st := d.Stats()
	d.Abort()
	if !errors.Is(err, stream.ErrDiskPressure) {
		return fmt.Errorf("ingest under exhausted disk: got %v, want ErrDiskPressure", err)
	}
	if res.PressureShed = st.PressureSheds > 0 && st.LastStorageErr != ""; !res.PressureShed {
		return fmt.Errorf("the shed round is missing from the daemon's stats: %+v", st)
	}

	// Clean reopen on the real filesystem: the torn prefix replays and
	// the stream runs to the end, identical to the reference.
	if _, err := chaos.RunToEnd(opts.ctx(), s, ref); err != nil {
		return fmt.Errorf("resume after pressure: %w", err)
	}
	res.ResumedAfterPressure = true
	return os.RemoveAll(s.Dir)
}
