// Command diurnalscan runs the full activity-inference pipeline over a
// simulated world and reports what it finds: per-gridcell change-sensitive
// populations and the days on which human activity dropped.
//
// Usage:
//
//	diurnalscan scan   [flags]              run the pipeline and report
//	diurnalscan daemon [flags] DIR          stream the window through a daemon
//	diurnalscan worker [flags] LEDGER       one worker of a sharded fleet
//	diurnalscan merge  [flags] LEDGER       merge and audit a sharded run
//	diurnalscan serve  [flags] ADDR SNAPDIR answer result queries over HTTP
//	diurnalscan verify DIR                  fsck an archived dataset store
//
// Every command but verify takes the world flags (-blocks -seed -observers
// -start -end -calendar) and -cpuprofile/-memprofile; scan, daemon and
// merge also take the report flags (-cells -days -region -report). A
// command defines only the flags that apply to it, so any other flag is a
// usage error; 'diurnalscan <command> -h' lists them. Example, the first
// Covid quarter at moderate scale:
//
//	diurnalscan scan -blocks 2000 -start 2020-01-01 -end 2020-04-22
//
// scan: -resume FILE journals every finished block, so a killed run rerun
// with the same flags picks up where it stopped and produces identical
// results. -deadletter DIR quarantines poison blocks (deterministic
// panics, blown deadlines, corrupt records) with their fault context;
// later runs sharing DIR skip them. -save DIR archives the raw
// observations of a whole-week window as a replayable store. -breaker
// supervises the observers with circuit breakers seeded by the §2.7
// pre-scan, -hedge re-dispatches stragglers past an adaptive deadline
// (requires -breaker, whose pre-scan seeds the deadline model), and
// -quorum N flags blocks analyzed with fewer than N observers.
//
// scan and daemon: -integrity arms the data-integrity firewall against
// observers that lie rather than fail. A stream that trips a per-block
// sanity gate (in-window timestamps, target-list membership, duplicate
// and reply-rate ceilings, cross-observer agreement) is excluded from
// that block's merge and attributed in the output; contested observations
// among the surviving streams resolve by observer majority.
//
// verify: an fsck of a store written by scan -save; non-zero if any
// observation log is corrupt.
//
// worker and merge: workers share the shard ledger at LEDGER; the first
// passes -shards N to create it. Shards are claimed under -lease DUR
// leases with monotonic fencing tokens, so a worker that crashes or
// stalls loses its shard to a peer and its late writes are rejected.
// When every shard is done, merge (with the same world flags) stitches
// the per-shard journals into one report and audits it: frame checksums,
// no coverage gaps, no conflicting duplicates, dead letters reconciled.
//
// daemon: the window runs as a stream. Each -roundlen of data (default
// 24h) is made durable in a write-ahead log under DIR before admission,
// and change events are emitted at most -confirm × -refresh rounds after
// a change is confirmed, each journaled with a contiguous sequence number
// before it is printed. A killed daemon rerun on the same DIR resumes by
// WAL replay to the exact detector state and event sequence; SIGTERM
// drains and exits 0; -watchdog DUR restarts a wedged step by the same
// replay. The final report equals a batch run of the same world. -walseg
// rotates the WALs into bounded segments, -walcompact folds a WAL to a
// checkpoint-anchored base past the given size, and -diskbudget caps DIR:
// a round that would exceed it is shed and the daemon exits 6.
//
// serve: publishes a finished run as a columnar snapshot under SNAPDIR
// (running the world first if there is none) and answers queries over
// HTTP at ADDR with bounded admission, prioritized load shedding (503 +
// Retry-After), a stale-while-revalidate cache and atomic snapshot
// hot-swaps; torn or foreign-run snapshots are quarantined, never served.
// SIGHUP reloads the newest snapshot; SIGTERM drains and exits 0.
// -inflight and -reqtimeout tune admission and the per-request deadline;
// -retain N keeps the newest N snapshots and -servebudget refuses
// publishes past a byte cap.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/diurnalnet/diurnal"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/profiling"
)

// Exit codes, one table for every command.
const (
	exitOK             = iota // clean
	exitError                 // runtime error: simulation, analysis or I/O failure, incomplete daemon drain
	exitUsage                 // unknown command or flag, bad flag value or argument count; nothing ran
	exitDegraded              // complete but lower-confidence: a breaker open at the end, blocks below -quorum or dead-lettered
	exitAuditFailed           // merge: the cross-shard integrity audit failed; do not trust the output
	exitSnapshotFailed        // serve: no snapshot could be loaded or built (bare 503s would look healthy to a load balancer)
	exitDiskPressure          // daemon: the WAL directory hit -diskbudget and a round was shed; the journal is consistent
	exitIntegrity             // the integrity firewall gated an observer stream: the input was tampered with
)

// exitCode maps how a world command ended to its exit code. drain is set
// for the daemon alone: for it, cancellation by SIGTERM or SIGINT is a
// clean stop after draining; for every other command it is a failure.
// Gated streams outrank the other degradations (7 before 3).
func exitCode(err error, drain bool, audit *diurnal.ShardAudit, report *diurnal.Report) int {
	switch {
	case errors.Is(err, diurnal.ErrStreamDiskPressure):
		return exitDiskPressure
	case drain && errors.Is(err, context.Canceled):
		return exitOK
	case err != nil:
		return exitError
	case audit != nil && !audit.Clean():
		return exitAuditFailed
	case report == nil || !report.Report.Degraded():
		return exitOK
	case len(report.Report.GatedStreams) > 0:
		return exitIntegrity
	}
	return exitDegraded
}

func main() { os.Exit(run(os.Args[1:])) }

// run executes one diurnalscan invocation and returns its exit code.
func run(args []string) int {
	cmd, code := parse(args, os.Stderr)
	if cmd == nil {
		return code
	}
	return cmd()
}

// A subcommand is one of diurnalscan's programs. define registers the
// flags it adds to the world and profile flags and sets the job's check
// and body; verify, which builds no world, has none.
type subcommand struct {
	name, args, about string
	define            func(fs *flag.FlagSet, j *job)
}

var subcommands = []subcommand{
	{"scan", "", "run the pipeline over a simulated world and report what it finds", defineScan},
	{"daemon", "DIR", "stream the window through a crash-safe ingestion daemon rooted at DIR", defineDaemon},
	{"worker", "LEDGER", "run as one worker of a sharded fleet sharing the ledger at LEDGER", defineWorker},
	{"merge", "LEDGER", "merge a completed sharded run's ledger and audit it", defineMerge},
	{"serve", "ADDR SNAPDIR", "serve result queries over HTTP at ADDR from the snapshots under SNAPDIR", defineServe},
	{"verify", "DIR", "fsck the archived dataset store at DIR and exit", nil},
}

// parse turns argv (without the program name) into a runnable command.
// It builds no world: every flag, value and argument-count error is found
// here, printed to stderr, and returned as exit code 2 with a nil command
// (exit 0 for -h).
func parse(args []string, stderr io.Writer) (func() int, int) {
	var sub *subcommand
	for i := range subcommands {
		if len(args) > 0 && args[0] == subcommands[i].name {
			sub = &subcommands[i]
		}
	}
	if sub == nil {
		fmt.Fprintln(stderr, "usage: diurnalscan <command> [flags] [args]\n\ncommands:")
		for _, s := range subcommands {
			fmt.Fprintf(stderr, "  %-19s %s\n", strings.TrimSpace(s.name+" "+s.args), s.about)
		}
		fmt.Fprintln(stderr, "\nrun 'diurnalscan <command> -h' for its flags")
		if len(args) > 0 && (args[0] == "-h" || args[0] == "-help" || args[0] == "--help") {
			return nil, exitOK
		}
		return nil, exitUsage
	}
	fs := flag.NewFlagSet("diurnalscan "+sub.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: diurnalscan %s [flags] %s\n", sub.name, sub.args)
		fs.PrintDefaults()
	}
	j := &job{}
	var w *worldFlags
	if sub.define != nil {
		w = addWorldFlags(fs)
		fs.StringVar(&j.cpuProfile, "cpuprofile", "", "write a CPU profile of the world run to this file")
		fs.StringVar(&j.memProfile, "memprofile", "", "write a heap profile after the world run to this file")
		sub.define(fs, j)
	}
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, exitOK
		}
		return nil, exitUsage
	}
	var err error
	j.args = fs.Args()
	switch want := strings.Fields(sub.args); {
	case len(j.args) != len(want):
		err = fmt.Errorf("want %d argument(s) after the flags %v, got %q", len(want), want, j.args)
	case sub.define == nil:
		return func() int { return verifyStore(j.args[0]) }, exitOK
	default:
		j.world, err = w.options()
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if j.check != nil {
			err = errors.Join(err, j.check(set))
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "diurnalscan %s: %v\nrun 'diurnalscan %s -h' for usage\n", sub.name, err, sub.name)
		return nil, exitUsage
	}
	return j.run, exitOK
}

// check returns the usage error format describes when bad holds.
func check(bad bool, format string, args ...any) error {
	if !bad {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// worldFlags are the flags that pick the simulated world.
type worldFlags struct {
	blocks, observers    int
	seed                 uint64
	start, end, calendar string
}

func addWorldFlags(fs *flag.FlagSet) *worldFlags {
	w := &worldFlags{}
	fs.IntVar(&w.blocks, "blocks", 1000, "number of /24 blocks to simulate")
	fs.Uint64Var(&w.seed, "seed", 1, "simulation seed")
	fs.IntVar(&w.observers, "observers", 4, "probing sites (1-6)")
	fs.StringVar(&w.start, "start", "2020-01-01", "window start (UTC)")
	fs.StringVar(&w.end, "end", "2020-04-22", "window end (UTC)")
	fs.StringVar(&w.calendar, "calendar", "2020", "event calendar: 2020, 2023 or none")
	return w
}

// options checks the world flags' values and converts them; on error it
// returns the zero options.
func (w *worldFlags) options() (diurnal.WorldOptions, error) {
	start, err := time.Parse("2006-01-02", w.start)
	if err != nil {
		return diurnal.WorldOptions{}, fmt.Errorf("bad -start: %v", err)
	}
	end, err := time.Parse("2006-01-02", w.end)
	if err != nil {
		return diurnal.WorldOptions{}, fmt.Errorf("bad -end: %v", err)
	}
	cal, ok := map[string]*diurnal.Calendar{"2020": diurnal.Calendar2020(), "2023": diurnal.Calendar2023(), "none": nil}[w.calendar]
	if !ok {
		return diurnal.WorldOptions{}, fmt.Errorf("bad -calendar %q", w.calendar)
	}
	return diurnal.WorldOptions{Blocks: w.blocks, Seed: w.seed, Observers: w.observers, Calendar: cal, Start: start.Unix(), End: end.Unix()}, nil
}

func addReportFlags(fs *flag.FlagSet, j *job) {
	fs.IntVar(&j.cells, "cells", 10, "number of gridcells to report")
	fs.IntVar(&j.days, "days", 5, "number of peak days per gridcell")
	fs.StringVar(&j.region, "region", "", "report only blocks of this region code (e.g. CN-WUH)")
	fs.StringVar(&j.report, "report", "", "write a markdown report to this file")
}

// job is a parsed world command. A field whose flag the command does not
// define keeps its zero value.
type job struct {
	world                  diurnal.WorldOptions
	args                   []string // the positional arguments
	timeout                time.Duration
	cpuProfile, memProfile string
	integrity              bool

	// check holds the command's value checks; set names the flags given
	// explicitly, since several default to 0 for "built-in default" but
	// must be positive when given.
	check func(set map[string]bool) error
	// body runs the command on the built world and returns the report to
	// print, or nil and the exit code.
	body func(ctx context.Context, world *diurnal.World, cfg diurnal.Config) (*diurnal.Report, int)

	// The report flags (scan, daemon, merge) and scan's extra output.
	cells, days    int
	region, report string
	save, resume   string
	supervise      bool
	quorum         int
}

// run builds the world, then runs the body under the signal context, the
// -timeout deadline and the profiles. Every NewWorld error is a bad world
// flag (block count, observer count, empty window), so it exits 2.
func (j *job) run() int {
	world, err := diurnal.NewWorld(j.world)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	cfg := diurnal.DefaultConfig(j.world.Start, j.world.End)
	cfg.Integrity = j.integrity
	// Classify on the first four weeks, the paper's pre-Covid baseline.
	cfg.BaselineStart, cfg.BaselineEnd = j.world.Start, min(j.world.End, j.world.Start+28*diurnal.SecondsPerDay)
	// SIGINT/SIGTERM cancel the run instead of killing it mid-write; with
	// -resume, finished blocks are already journaled when we exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if j.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
		defer cancel()
	}
	stopProfiles, err := profiling.Start(j.cpuProfile, j.memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	began := time.Now()
	report, code := j.body(ctx, world, cfg)
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if report == nil {
		return code
	}
	return j.print(world, report, began)
}

func defineScan(fs *flag.FlagSet, j *job) {
	addReportFlags(fs, j)
	var ro diurnal.RunOptions
	fs.DurationVar(&j.timeout, "timeout", 0, "abort the run after this long (e.g. 10m); finished blocks stay journaled with -resume")
	fs.BoolVar(&j.integrity, "integrity", false, "arm the data-integrity firewall: gate lying observer streams out of the merge and resolve contested observations by majority")
	fs.IntVar(&ro.Workers, "workers", 0, "analysis worker goroutines (0 = GOMAXPROCS)")
	fs.StringVar(&j.save, "save", "", "also archive raw observations into this directory (the window must be whole weeks)")
	fs.StringVar(&j.resume, "resume", "", "journal finished blocks to this file and resume from it after a crash")
	fs.StringVar(&ro.DeadLetterPath, "deadletter", "", "quarantine poison blocks into this directory and skip them on later runs")
	fs.BoolVar(&ro.Breaker, "breaker", false, "supervise observers with runtime circuit breakers (implies the pre-scan health check)")
	fs.BoolVar(&ro.Hedge, "hedge", false, "re-dispatch straggler blocks past an adaptive latency deadline (requires -breaker)")
	fs.IntVar(&ro.Quorum, "quorum", 0, "flag blocks analyzed with fewer than this many observers (0 disables)")
	j.check = func(map[string]bool) error {
		resumeDir := filepath.Dir(j.resume)
		_, statErr := os.Stat(resumeDir)
		span := j.world.End - j.world.Start
		return errors.Join(
			check(ro.Workers < 0, "-workers must be >= 0 (got %d)", ro.Workers),
			check(ro.Quorum < 0, "-quorum must be >= 0 (got %d)", ro.Quorum),
			check(ro.Hedge && !ro.Breaker, "-hedge requires -breaker: the breaker pre-scan seeds the straggler deadline model"),
			check(j.resume != "" && resumeDir != "." && statErr != nil, "-resume %s: directory %s does not exist", j.resume, resumeDir),
			// A store holds whole weeks: archiving less than the analyzed
			// window would make a replay of it disagree with this run.
			check(j.save != "" && span%(7*diurnal.SecondsPerDay) != 0,
				"-save archives whole weeks, but the window %s .. %s is %d days", day(j.world.Start), day(j.world.End), span/diurnal.SecondsPerDay),
		)
	}
	j.body = func(ctx context.Context, world *diurnal.World, cfg diurnal.Config) (*diurnal.Report, int) {
		ro.CheckpointPath, ro.Integrity = j.resume, j.integrity
		j.quorum, j.supervise = ro.Quorum, ro.Breaker || ro.Hedge || ro.Quorum > 0
		report, err := world.RunContext(ctx, cfg, ro)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			if j.resume != "" && ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "run interrupted; rerun with -resume %s to continue\n", j.resume)
			}
			return nil, exitCode(err, false, nil, nil)
		}
		return report, exitOK
	}
}

func defineDaemon(fs *flag.FlagSet, j *job) {
	addReportFlags(fs, j)
	var so diurnal.StreamOptions
	fs.DurationVar(&j.timeout, "timeout", 0, "abort the stream after this long (e.g. 10m); a rerun resumes from the WAL")
	fs.BoolVar(&j.integrity, "integrity", false, "arm the data-integrity firewall: gate lying observer streams out of each round")
	roundLen := fs.Duration("roundlen", 24*time.Hour, "data per ingested round (multiple of 1h)")
	fs.IntVar(&so.RefreshEvery, "refresh", 1, "run a trend refresh every N rounds")
	fs.IntVar(&so.ConfirmRefreshes, "confirm", 2, "consecutive refreshes a change must survive before emission")
	fs.IntVar(&so.MaxQueue, "maxqueue", 64, "admitted-but-unprocessed round bound (ingestion blocks beyond it)")
	fs.DurationVar(&so.Watchdog, "watchdog", 0, "restart a wedged analysis step after this long (0 disables)")
	fs.Int64Var(&so.SegmentBytes, "walseg", 0, "rotate WAL segments at this many bytes (default 8MiB)")
	fs.Int64Var(&so.CompactBytes, "walcompact", 0, "compact a WAL to its checkpoint base when it exceeds this many bytes (0 never)")
	fs.Int64Var(&so.DiskBudget, "diskbudget", 0, "shed rounds when the daemon directory would exceed this many bytes (0 unlimited)")
	j.check = func(set map[string]bool) error {
		return errors.Join(
			check(*roundLen <= 0 || *roundLen%time.Hour != 0, "-roundlen must be a positive multiple of 1h (got %s)", *roundLen),
			check(so.RefreshEvery < 1 || so.ConfirmRefreshes < 1 || so.MaxQueue < 1, "-refresh, -confirm and -maxqueue must be >= 1"),
			check(set["watchdog"] && so.Watchdog <= 0, "-watchdog must be positive (got %s)", so.Watchdog),
			check(set["walseg"] && so.SegmentBytes < 4096, "-walseg must be >= 4096 bytes (got %d)", so.SegmentBytes),
			check(set["walcompact"] && so.CompactBytes <= 0, "-walcompact must be positive (got %d)", so.CompactBytes),
			check(set["diskbudget"] && so.DiskBudget <= 0, "-diskbudget must be positive (got %d)", so.DiskBudget),
		)
	}
	j.body = func(ctx context.Context, world *diurnal.World, cfg diurnal.Config) (*diurnal.Report, int) {
		so.Dir, so.RoundLen = j.args[0], int64(*roundLen/time.Second)
		so.OnEvent = func(ev diurnal.StreamEvent) {
			fmt.Printf("event %4d  %v  %-4s change around %s  (confirmed %d rounds after first seen)\n",
				ev.Seq, ev.ID, ev.Change.Dir, day(ev.Change.Point), ev.EmitSeq-ev.FirstSeenSeq)
		}
		report, events, err := world.RunStream(ctx, cfg, so)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			code := exitCode(err, true, nil, nil)
			switch code {
			case exitDiskPressure:
				fmt.Fprintf(os.Stderr, "daemon stopped at the disk budget; raise -diskbudget or free space under %s and rerun\n", so.Dir)
			case exitOK:
				fmt.Fprintf(os.Stderr, "daemon drained and stopped; rerun the same daemon command on %s to continue the stream\n", so.Dir)
			}
			return nil, code
		}
		fmt.Printf("stream complete: %d change events journaled under %s\n\n", len(events), so.Dir)
		return report, exitOK
	}
}

func defineWorker(fs *flag.FlagSet, j *job) {
	var so diurnal.ShardOptions
	fs.DurationVar(&j.timeout, "timeout", 0, "abort the worker after this long; its lease expires and a peer takes the shard over")
	fs.IntVar(&so.Shards, "shards", 0, "create the ledger with this many shards (0 opens an existing ledger)")
	fs.StringVar(&so.WorkerID, "workerid", "", "name this worker in leases and dead letters (default worker-<pid>)")
	fs.DurationVar(&so.LeaseTTL, "lease", 0, "shard lease duration (default 30s)")
	j.check = func(set map[string]bool) error {
		return errors.Join(
			check(so.Shards < 0, "-shards must be >= 0 (got %d)", so.Shards),
			check(set["lease"] && so.LeaseTTL <= 0, "-lease must be positive (got %s)", so.LeaseTTL),
		)
	}
	// A worker exits 0 once every shard in the ledger is complete —
	// including shards finished by other workers — so a fleet of identical
	// invocations converges without coordination beyond the ledger itself.
	j.body = func(ctx context.Context, world *diurnal.World, cfg diurnal.Config) (*diurnal.Report, int) {
		so.Dir = j.args[0]
		began := time.Now()
		rep, err := world.RunShardWorker(ctx, cfg, so)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "worker interrupted; its lease expires shortly and another worker (or a rerun) takes the shard over")
			}
			return nil, exitCode(err, false, nil, nil)
		}
		fmt.Printf("worker done in %.1fs: completed %d shard(s), analyzed %d blocks\n",
			time.Since(began).Seconds(), len(rep.CompletedShards), rep.Analyzed)
		if rep.Resumed > 0 {
			fmt.Printf("  inherited %d journaled blocks from fenced predecessors\n", rep.Resumed)
		}
		if rep.Fenced > 0 {
			fmt.Printf("  abandoned %d shard(s) to peers after losing the lease\n", rep.Fenced)
		}
		if rep.DeadLettered > 0 {
			fmt.Printf("  dead-lettered %d poison blocks (the merge will report the run degraded)\n", rep.DeadLettered)
		}
		return nil, exitOK
	}
}

func defineMerge(fs *flag.FlagSet, j *job) {
	addReportFlags(fs, j)
	j.body = func(_ context.Context, world *diurnal.World, cfg diurnal.Config) (*diurnal.Report, int) {
		report, audit, err := world.MergeShards(cfg, j.args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return nil, exitCode(err, false, nil, nil)
		}
		fmt.Println(audit)
		if code := exitCode(nil, false, audit, nil); code != exitOK {
			fmt.Fprintln(os.Stderr, "merge audit FAILED: the merged output is untrustworthy; inspect the ledger")
			return nil, code
		}
		return report, exitOK
	}
}

func defineServe(fs *flag.FlagSet, j *job) {
	var so serveOptions
	fs.DurationVar(&j.timeout, "timeout", 0, "stop serving after this long (drains like SIGTERM)")
	fs.IntVar(&so.Inflight, "inflight", 0, "bound on admitted-but-unfinished requests (default 64)")
	fs.DurationVar(&so.ReqTimeout, "reqtimeout", 0, "per-request deadline propagated into snapshot reads (default 2s)")
	fs.IntVar(&so.Retain, "retain", 0, "keep only the newest N snapshots on disk after each install (0 keeps all)")
	fs.Int64Var(&so.DiskBudget, "servebudget", 0, "refuse snapshot publishes past this many directory bytes (0 unlimited)")
	j.check = func(set map[string]bool) error {
		return errors.Join(
			check(set["inflight"] && so.Inflight < 1, "-inflight must be >= 1 (got %d)", so.Inflight),
			check(set["reqtimeout"] && so.ReqTimeout <= 0, "-reqtimeout must be positive (got %s)", so.ReqTimeout),
			check(set["retain"] && so.Retain < 1, "-retain must keep at least 1 snapshot (got %d)", so.Retain),
			check(set["servebudget"] && so.DiskBudget <= 0, "-servebudget must be positive (got %d)", so.DiskBudget),
		)
	}
	j.body = func(ctx context.Context, world *diurnal.World, cfg diurnal.Config) (*diurnal.Report, int) {
		so.Addr, so.Dir = j.args[0], j.args[1]
		return nil, runServe(ctx, world, cfg, so)
	}
}

// verifyStore fscks an archived dataset store and returns the process
// exit code: 0 when every observation log checks out, 1 when corruption
// was found, 2 when the directory is not a store.
func verifyStore(dir string) int {
	st, err := dataset.OpenStore(dir)
	var rep *dataset.VerifyReport
	if err == nil {
		rep, err = st.Verify()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}
	fmt.Print(rep)
	if !rep.Clean() {
		return exitError
	}
	return exitOK
}
