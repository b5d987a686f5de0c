// Command bench is this repository's benchmark: four workloads over one
// generated world, end-to-end metrics with fixed regression bounds, and a
// separate traced run that attributes time to each layer of the paper's
// Table 1 pipeline. See README.md in this directory.
//
//	go run ./bench -workload scan_sim [-seed N] [-seconds S] [-trace 0|1]
//	go run ./bench -all
//	go run ./bench -aa 5
//
// Every layer is measured from outside, by timing calls into its exported
// functions; nothing outside this directory knows the benchmark exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// datasetName is the catalog window every workload analyses: 12 weeks,
// four observers.
const datasetName = "2020q1-ejnw"

// worldSeed fixes what the generated world holds; see env.world.
const worldSeed = 1

// env is one run's context: the seed, the time budget, the scratch
// directory, and the shared analysis window.
type env struct {
	seed    uint64
	seconds float64
	scale   float64
	// dir holds every archive, WAL, journal and snapshot of the run; it
	// lives under the working directory and is removed at exit.
	dir string
	// traceOut, when set, receives the traced run's spans as JSON.
	traceOut string
	log      io.Writer

	spec dataset.Spec
	cfg  core.Config
	// generators is min(maxGenerators, nproc): pipeline workers and query
	// clients the benchmark drives.
	generators int
}

func newEnv(seed uint64, seconds, scale float64, dir string, log io.Writer) (*env, error) {
	spec, err := dataset.FindSpec(datasetName)
	if err != nil {
		return nil, err
	}
	return &env{
		seed:       seed,
		seconds:    seconds,
		scale:      scale,
		dir:        dir,
		log:        log,
		spec:       spec,
		cfg:        core.DefaultConfig(spec.Start, spec.End()),
		generators: min(maxGenerators, runtime.NumCPU()),
	}, nil
}

// size scales a frozen block count, never below the smallest world on
// which the workload's gates still mean something.
func (e *env) size(frozen, floor int) int {
	return max(floor, int(float64(frozen)*e.scale+0.5))
}

// The four workloads' sizes at this run's scale. serve_mixed's floor
// keeps enough blocks for the two published results to differ.
func (e *env) simBlocks() int    { return e.size(simBlocks, 8) }
func (e *env) replayBlocks() int { return e.size(replayBlocks, 4) }
func (e *env) streamBlocks() int { return e.size(streamBlocks, 1) }
func (e *env) serveBlocks() int  { return e.size(serveBlocks, 48) }

// world builds the shared generated world at the given size, in the
// run's block order.
//
// What the world holds does not depend on the run's seed: which blocks
// exist, where, who lives in them, what happens to them and how the four
// observers probe them is fixed by worldSeed and the catalog's engine. A
// /24 costs anything from nothing to fifty milliseconds, and a single
// block that tips into or out of "change-sensitive" gains or loses its
// whole STL stage, so worlds drawn (or merely observed) afresh per seed
// differ in total work by far more than any bound: 12 % at 300 blocks,
// 70 % at 10. The seed therefore decides only the order in which the
// blocks arrive (and serve_mixed's query sequence): another seed is
// another schedule over exactly the same work.
func (e *env) world(blocks int) ([]*dataset.WorldBlock, error) {
	return e.worldWith(blocks, 1, events.Year2020())
}

// worldWith is world with two more knobs: it keeps every stride-th block
// of a world stride times larger (a small world alone is one block per
// region in atlas order), and it can run the world under another event
// calendar: the same blocks in the same places and the same order, living
// through different events.
func (e *env) worldWith(blocks, stride int, calendar *events.Calendar) ([]*dataset.WorldBlock, error) {
	all, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   blocks * stride,
		Seed:     worldSeed,
		Calendar: calendar,
		Start:    e.spec.Start,
		End:      e.spec.End(),
	})
	if err != nil {
		return nil, err
	}
	world := make([]*dataset.WorldBlock, 0, blocks)
	for i := 0; i < len(all); i += stride {
		world = append(world, all[i])
	}
	rand.New(rand.NewSource(int64(e.seed))).Shuffle(len(world), func(i, j int) {
		world[i], world[j] = world[j], world[i]
	})
	return world, nil
}

// engine returns the catalog's four-observer probing engine.
func (e *env) engine() (*probe.Engine, error) {
	return dataset.EngineFor(e.spec, nil)
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// samples[name] is how many samples stand behind the value; printed
	// beside each metric, not part of the result line.
	samples map[string]int
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metricValue{}, samples: map[string]int{}}
}

// set records a metric; samples is the count behind the value.
func (r *result) set(name string, value float64, samples int) {
	r.Metrics[name] = metricValue{Value: value}
	r.samples[name] = samples
}

// setSpans records the median of a span name's self times in unit.
func (r *result) setSpans(name string, spans []time.Duration, unit time.Duration) {
	xs := make([]float64, len(spans))
	for i, d := range spans {
		xs[i] = float64(d) / float64(unit)
	}
	r.set(name, median(xs), len(spans))
}

// finish attaches units from the registry and checks that exactly the
// registered metrics were emitted.
func (r *result) finish(defs []metricDef) error {
	registered := map[string]bool{}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		m.Unit = d.Unit
		r.Metrics[d.Name] = m
		registered[d.Name] = true
	}
	for name := range r.Metrics {
		if !registered[name] {
			return fmt.Errorf("metric %s is not in the registry", name)
		}
	}
	return nil
}

// runWorkload runs one workload: traced=false measures the end-to-end
// metrics with tracing off, traced=true makes the separate traced run
// that yields the per-layer metrics. A correctness gate that fails is an
// error: no metrics are reported for an incorrect program.
func runWorkload(e *env, name string, traced bool) (*result, error) {
	w := findWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	r := newResult()
	defs, run := endToEnd, w.run
	if traced {
		defs, run = perLayer, func(e *env, r *result) error { return runTraced(e, name, r) }
	}
	if err := run(e, r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if !traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		r.set("peak_rss_mb", rss, 1)
	}
	if err := r.finish(defs); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return r, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// printHeader records what the numbers were measured on.
func printHeader(w io.Writer, e *env, workload string, traced bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "bench: workload=%s trace=%v seed=%d seconds=%g scale=%g\n", workload, traced, e.seed, e.seconds, e.scale)
	fmt.Fprintf(w, "bench: nproc=%d GOMAXPROCS=%d %s commit=%s dataset=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, datasetName)
	fmt.Fprintf(w, "bench: load generators clamped to min(%d, nproc) = %d (pipeline workers, query clients)\n",
		maxGenerators, e.generators)
	fmt.Fprintf(w, "bench: frozen sizes: scan_sim=%d scan_replay_guarded=%d stream_daemon=%dx%d serve_mixed=%d blocks; %d set-ups per run\n",
		e.simBlocks(), e.replayBlocks(), e.streamBlocks(), 7*e.spec.Weeks, e.serveBlocks(), setupReps)
}

// printMetrics lists every metric by name with its unit and sample count.
func printMetrics(w io.Writer, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-44s %16.6g %-6s (n=%d)\n", name, m.Value, m.Unit, r.samples[name])
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d failed_frac=%g\n", r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "generator seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed section")
		trace    = flag.Int("trace", 0, "1 makes the separate traced run and reports the per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, also write the spans of the named workload's section to this JSON file")
		scale    = flag.Float64("scale", 1, "multiplies the frozen block counts (smoke runs)")
		all      = flag.Bool("all", false, "run every workload, untraced then traced, one process each")
		aa       = flag.Int("aa", 0, "self-check: run each workload N times on this code and judge the spread against the bounds")
		tmp      = flag.String("tmp", ".bench_build", "directory under which the run's scratch directory is created and removed")
		emit     = flag.Bool("manifest", false, "print BENCHMARK.json as the registry defines it")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *emit {
		data, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("%s\n", data)
		return 0
	}
	if *aa > 0 || *all {
		var names []string
		for _, w := range workloads {
			if *workload == "" || *workload == w.Name {
				names = append(names, w.Name)
			}
		}
		if len(names) == 0 {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, workloadNames())
			return 2
		}
		child := childArgs{seed: *seed, seconds: *seconds, scale: *scale, tmp: *tmp}
		var err error
		if *aa > 0 {
			err = selfCheck(os.Stdout, names, *aa, child)
		} else {
			err = runAll(os.Stdout, names, child)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "bench: -workload is required (or -all, or -aa N)")
		return 2
	}
	if *seconds <= 0 || *scale <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -scale must be positive")
		return 2
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	root, err := filepath.Abs(*tmp)
	if err == nil {
		root, err = os.MkdirTemp(root, "run-*")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(root)
	e, err := newEnv(*seed, *seconds, *scale, root, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	e.traceOut = *traceOut
	printHeader(os.Stdout, e, *workload, *trace != 0)
	r, err := runWorkload(e, *workload, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
		return 1
	}
	printMetrics(os.Stdout, r)
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}
