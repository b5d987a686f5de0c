package main

// The benchmark's registry: every workload, every metric, and the frozen
// sizes. BENCHMARK.json at the repository root carries the same names,
// units, directions and bounds for the driver; bench_test.go fails when
// the two drift apart. A performance claim names a metric and a workload
// from this file and nothing else.

// runSeconds is the frozen length of one run's timed section; the driver
// passes it back as --seconds. The time-driven loops run whole units (one
// scan, one stream cycle) until it has elapsed.
const runSeconds = 15

// maxGenerators caps the goroutines the benchmark itself drives load
// from (pipeline workers, query clients). The sandbox has two cores; more
// generators would measure the scheduler, not the program.
const maxGenerators = 2

// Frozen sizes, tuned once on the 2-core sandbox so that set-up plus the
// timed section of every workload fits the driver's per-run budget
// (4 + 22 x 4 runs inside 3420 s). -scale multiplies the block counts.
const (
	simBlocks    = 300 // scan_sim: one Pipeline.Run is ~1 s
	replayBlocks = 100 // scan_replay_guarded: ~27 MB archive, ~45 MB journal per scan
	streamBlocks = 10  // stream_daemon: 84 daily rounds, ~70 refreshes per pass
	streamStride = 6   // ... taken as every 6th block of a 60-block world
	serveBlocks  = 300 // serve_mixed: blocks behind each published snapshot

	setupReps = 3 // full set-ups per run; setup_s is their median

	// serve_mixed traffic shape.
	serveSeqLen       = 1 << 16 // requests in one client's fixed sequence
	serveHotKeys      = 256     // Zipf universe of the hot 30 %
	serveColdWindow   = 4096    // a cold key is new among this many predecessors
	servePublishEvery = 20000   // client 0 publishes after this many of its own requests
	serveChunk        = 10000   // p99 is taken per chunk of this many requests
	serveWarmup       = 2000    // untimed requests per set-up
	serveVerifyOneIn  = 100     // seeded 1 % body sample

	// Traced runs: the named workload's section runs at a quarter of its
	// size, the other sections at probe size so that every layer reports.
	traceDivisor     = 4
	probeSimBlocks   = 16
	probeReplay      = 8
	probeStream      = 2
	probeServeBlocks = 16
	traceServeReqs   = 40000 // focus; a quarter of ~10 s of one client's traffic
	probeServeReqs   = 4000
)

type workloadDef struct {
	Name string
	Why  string
	// run measures the end-to-end metrics with tracing off.
	run func(*env, *result) error
}

var workloads = []workloadDef{
	{"scan_sim",
		"live simulated probing through Pipeline.Run with no optional layer: the only workload where netsim/probe (a third of the work) can show",
		runScanSim},
	{"scan_replay_guarded",
		"archived replay with integrity firewall, breaker, suspect pre-scan and checkpoint journal armed: dataset decode, sanitize, integrity and journal dominate; probing is bypassed",
		runScanReplayGuarded},
	{"stream_daemon",
		"the same kernel used incrementally: every daily round is journaled in the WAL first and every refresh re-analyses every block, in lockstep (with a kill and resume) and saturated",
		runStreamDaemon},
	{"serve_mixed",
		"two closed-loop clients on the query server, 70% cold column reads and 30% hot cache hits, with snapshot publishes beside the reads; the analysis does no work here",
		runServeMixed},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; zero for per-layer metrics, which have none.
	Bound float64
	// Count marks a per-layer metric that must repeat exactly for a seed.
	Count bool
	Why   string
}

// noisyHostBound is every end-to-end metric's regression bound: the
// largest the driver allows. The issue asked for 8-10 %, which a quiet
// host would support (ten same-code runs spread 1.5 % there), but the
// sandbox has phases of tens of seconds in which everything runs 20-40 %
// slower, and over ten runs the metrics then spread 4-15 % (README.md,
// "Bounds"). A bound under three times that would reject the benchmark
// itself, and later changes at random. Tighten it on a quieter host.
const noisyHostBound = 0.25

// endToEnd lists what a user of the system sees. The driver wants every
// end-to-end metric from every workload, so each is defined per unit of
// the workload's own work; bench/README.md maps them onto the issue's
// per-subsystem names (scan_blocks_per_s, stream_round_ms_p50, ...).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: noisyHostBound,
		Why: "everything before the first timed iteration, built from the seed and including one warm-up pass; median of setupReps full set-ups"},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: noisyHostBound,
		Why: "scans: blocks / median scan wall; stream: blocks x rounds / saturated-phase wall; serve: 200-responses / wall"},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: noisyHostBound,
		Why: "median wait for one synchronous answer: a whole scan, a lockstep round (Ingest to Drain), a query"},
	{Name: "latency_ms_tail", Unit: "ms", Better: "lower", Bound: noisyHostBound,
		Why: "the slow case: p90 of scan walls, p90 of lockstep rounds, median over 10k-request chunks of the query p99"},
	{Name: "handoff_ms", Unit: "ms", Better: "lower", Bound: noisyHostBound,
		Why: "the durable state hand-off beside the main loop: publish the scan result as a snapshot, restart from a full checkpoint journal, reopen an aborted daemon (42 rounds of WAL replay), Server.Publish"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: noisyHostBound,
		Why: "process CPU time (user+system, GC included) of the timed section per unit of work"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: noisyHostBound,
		Why: "VmHWM of the run's process at exit; one process per run"},
}

func us(name, why string) metricDef {
	return metricDef{Name: name, Unit: "us", Better: "lower", Why: why}
}
func ms(name, why string) metricDef {
	return metricDef{Name: name, Unit: "ms", Better: "lower", Why: why}
}
func count(name, unit, better, why string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Count: true, Why: why}
}

// perLayer lists the traced run's metrics, layer = module name. Times are
// medians of span self time.
var perLayer = []metricDef{
	// netsim / probe
	ms("netsim.build_world_ms", "dataset.BuildWorld for the section's world"),
	us("probe.collect_us_per_block", "probe.Engine.CollectInto, one block, full window"),
	count("probe.records_per_block", "count", "lower", "probe records per block, all observers"),
	// dataset
	ms("dataset.archive_ms_per_block", "dataset.CreateStore wall / blocks: collect, encode, atomic write per log"),
	count("dataset.bytes_per_block", "B", "lower", "archive bytes on disk / blocks"),
	us("dataset.replay_collect_us_per_block", "ReplayProber.CollectInto: mmap decode + CRC"),
	// reconstruct
	us("reconstruct.sanitize_us_per_block", "Sanitize over all streams (replay only; clean probers skip it)"),
	us("reconstruct.resolve_contested_us_per_block", "ResolveContested (integrity on only)"),
	us("reconstruct.repair_us_per_block", "Repair1Loss over all streams"),
	us("reconstruct.merge_us_per_block", "MergeInto"),
	us("reconstruct.reconstruct_us_per_block", "Reconstruct"),
	us("reconstruct.resample_us_per_cs_block", "Series.ResampleWithGaps, change-sensitive blocks only"),
	// integrity
	us("integrity.check_us_per_block", "integrity.Check on the raw streams"),
	count("integrity.gated_streams", "count", "lower", "observers gated in the guarded scan; 0 on clean data"),
	// outage
	us("outage.from_records_us_per_block", "outage.FromRecords on the merged stream"),
	// blockclass / dsp
	us("blockclass.classify_us_per_block", "blockclass.ClassifyScratch"),
	count("blockclass.change_sensitive_frac", "ratio", "higher", "blocks that go on to STL / blocks classified"),
	us("dsp.diurnal_stats_us_per_series", "dsp.Scratch.DiurnalStats on the first 28-day baseline resample (a part of classify, timed on its own)"),
	// stl
	us("stl.decompose_us_per_cs_block", "stl.Workspace.DecomposeInto, weekly period, trend 193, periodic"),
	// changepoint
	us("changepoint.detect_us_per_cs_block", "changepoint.Normalize + Detect"),
	count("changepoint.raw_changes_per_cs_block", "count", "lower", "CUSUM detections before any filter / change-sensitive blocks"),
	// core
	us("core.analyze_collected_us_per_block", "the whole kernel on already-collected records (Config.AnalyzeBlockScratch behind a canned prober)"),
	us("core.finish_residual_us_per_block", "kernel minus the staged stages: filters, wall-clock mapping, result assembly"),
	ms("core.aggregate_ms", "WorldResult.Reaggregate"),
	ms("core.fingerprint_ms", "WorldResult.Fingerprint"),
	us("core.checkpoint.append_us_per_block", "Checkpointer.Append of one block outcome"),
	count("core.checkpoint.bytes_per_block", "B", "lower", "journal bytes / blocks"),
	ms("core.checkpoint.read_ms", "core.ReadCheckpoint of the full journal"),
	{Name: "core.workers1_blocks_per_s", Unit: "1/s", Better: "higher", Why: "Pipeline.Run, live probing, one worker"},
	{Name: "core.scaling_efficiency", Unit: "ratio", Better: "higher", Why: "rate at 2 workers / (2 x rate at 1 worker)"},
	{Name: "core.pipeline_overhead_frac", Unit: "ratio", Better: "lower", Why: "1 - sum of per-block collect+kernel time / (workers x scan wall): scheduling, batching, admission"},
	{Name: "core.guard_overhead_ratio", Unit: "ratio", Better: "lower", Why: "guarded replay wall / plain replay wall on the same archive"},
	{Name: "core.alloc_kb_per_block", Unit: "kB", Better: "lower", Why: "runtime.MemStats.TotalAlloc delta of a one-worker scan / blocks"},
	{Name: "core.allocs_per_block", Unit: "count", Better: "lower", Why: "runtime.MemStats.Mallocs delta of a one-worker scan / blocks"},
	// stream
	ms("stream.feeder.build_ms", "stream.NewFeeder: collect every block once, index by round"),
	ms("stream.wal.ingest_ms_p50", "Daemon.Ingest: validate, encode, one write() to the round WAL (no fsync per round)"),
	count("stream.wal.bytes_per_block_round", "B", "lower", "WAL bytes / (blocks x rounds)"),
	count("stream.wal.segments", "count", "lower", "live WAL segment files after the last round"),
	count("stream.wal.rotations", "count", "lower", "WAL segment rollovers over the pass"),
	ms("stream.detector.step_ms_p50_refresh", "Daemon.Drain on a round that refreshed"),
	ms("stream.detector.step_ms_p50_norefresh", "Daemon.Drain on a round that did not"),
	count("stream.refreshes", "count", "lower", "trend refreshes over the pass"),
	count("stream.events", "count", "higher", "change events journaled"),
	{Name: "stream.queue_max_depth", Unit: "count", Better: "lower", Why: "admission queue high-water mark, saturated phase"},
	ms("stream.replay_ms_per_round", "stream.Open on the aborted directory / rounds replayed"),
	ms("stream.result_ms", "Daemon.Result"),
	// serve
	ms("serve.snapshot.encode_ms", "serve.EncodeSnapshot"),
	ms("serve.snapshot.write_ms", "atomic write of the encoded bytes"),
	ms("serve.snapshot.verify_ms", "serve.VerifySnapshot"),
	ms("serve.snapshot.open_ms", "serve.OpenSnapshot"),
	ms("serve.snapshot.install_ms", "Server.Install: vet, swap, retention GC"),
	count("serve.snapshot.bytes", "B", "lower", "encoded snapshot size"),
	us("serve.reader.cell_us_p50", "Snapshot.CellQuery, direct"),
	us("serve.reader.topk_us_p50", "Snapshot.TopK, direct"),
	us("serve.reader.continent_us_p50", "Snapshot.ContinentQuery, direct"),
	us("serve.reader.block_us_p50", "Snapshot.BlockChanges, direct"),
	us("serve.http.hit_us_p50", "ServeHTTP answered from the response cache"),
	us("serve.http.miss_us_p50", "ServeHTTP that rendered"),
	us("serve.http.overhead_us_p50", "miss minus the direct reader call of the same query: admission, JSON, cache insert"),
	{Name: "serve.cache.hit_ratio", Unit: "ratio", Better: "higher", Why: "fresh hits / cache lookups"},
	{Name: "serve.cache.stale_served", Unit: "count", Better: "lower", Why: "responses served stale"},
	{Name: "serve.admission.shed", Unit: "count", Better: "lower", Why: "requests shed by admission"},
	// storage
	ms("storage.write_atomic_ms_p50", "storage.WriteBytesAtomic of 1 MiB: the machine's disk calibrator"),
	// trace
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Why: "traced wall / untraced wall - 1 on the named workload's section"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// manifest is BENCHMARK.json: what the driver reads to run and judge the
// benchmark. It is generated from the registry (go run ./bench -manifest)
// and bench_test.go holds the committed file to it.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWork   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWork{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}
