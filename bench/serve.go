package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/serve"
)

type queryClass uint8

const (
	queryCell queryClass = iota
	queryContinent
	queryTopK
	queryBlock
	numQueryClasses
)

func (c queryClass) String() string {
	return [...]string{"cell", "continent", "topk", "block"}[c]
}

// query is one generated request with the parameters the server will
// parse out of it, so the same query can be put to the Snapshot reader
// directly.
type query struct {
	class    queryClass
	cell     geo.CellKey
	dir      changepoint.Direction
	cont     geo.Continent
	k        int
	id       uint32
	from, to int64 // UTC day indices
	path     string
	rawQuery string
	// verify marks the seeded sample whose body is checked against the
	// reader.
	verify bool
}

// traffic draws serve_mixed's fixed request sequence: 70 % cold queries
// whose from/to window makes the cache key new among the last
// serveColdWindow keys (a column read), 30 % hot queries, Zipf over
// serveHotKeys fixed keys (a response-cache hit).
type traffic struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	cells    []geo.CellKey
	ids      []uint32
	conts    []geo.Continent
	startDay int64
	days     int
	hot      []query
	recent   map[string]bool
	ring     []string
	next     int
}

func newTraffic(seed int64, sn *serve.Snapshot, ids []uint32) *traffic {
	rng := rand.New(rand.NewSource(seed))
	t := &traffic{
		rng:      rng,
		cells:    sn.CellKeys(),
		ids:      ids,
		conts:    geo.Continents(),
		startDay: sn.Meta().StartDay(),
		days:     sn.Meta().Days(),
		recent:   map[string]bool{},
		ring:     make([]string, serveColdWindow),
	}
	hotKeys := serveHotKeys
	t.zipf = rand.NewZipf(rng, 1.2, 1, uint64(hotKeys-1))
	seen := map[string]bool{}
	for len(t.hot) < hotKeys {
		q := t.draw()
		if key := q.path + "?" + q.rawQuery; !seen[key] {
			seen[key] = true
			t.hot = append(t.hot, q)
		}
	}
	return t
}

// draw makes one query with a random window, mixed 8:4:3:1 over cell,
// block, continent and top-k.
func (t *traffic) draw() query {
	var q query
	a := t.rng.Intn(t.days)
	b := a + 1 + t.rng.Intn(t.days-a)
	q.from, q.to = t.startDay+int64(a), t.startDay+int64(b)
	v := url.Values{}
	v.Set("from", strconv.FormatInt(q.from, 10))
	v.Set("to", strconv.FormatInt(q.to, 10))
	switch n := t.rng.Intn(16); {
	case n < 8:
		q.class, q.path = queryCell, "/v1/cell"
		q.cell = t.cells[t.rng.Intn(len(t.cells))]
		lat, lon := q.cell.Center()
		v.Set("lat", strconv.FormatFloat(lat, 'g', -1, 64))
		v.Set("lon", strconv.FormatFloat(lon, 'g', -1, 64))
		q.dir = changepoint.Down
		if t.rng.Intn(4) == 0 {
			q.dir = changepoint.Up
			v.Set("dir", "up")
		}
	case n < 12:
		q.class, q.path = queryBlock, "/v1/block"
		q.id = t.ids[t.rng.Intn(len(t.ids))]
		v.Set("id", strconv.FormatUint(uint64(q.id), 10))
	case n < 15:
		q.class, q.path = queryContinent, "/v1/continent"
		q.cont = t.conts[t.rng.Intn(len(t.conts))]
		v.Set("name", q.cont.String())
	default:
		q.class, q.path = queryTopK, "/v1/topk"
		q.k = 5 + t.rng.Intn(20)
		q.dir = changepoint.Down
		v.Set("k", strconv.Itoa(q.k))
	}
	q.rawQuery = v.Encode()
	return q
}

// sequence returns the next n requests of the fixed sequence.
func (t *traffic) sequence(n int) []query {
	seq := make([]query, n)
	for i := range seq {
		var q query
		if t.rng.Intn(10) < 3 {
			q = t.hot[t.zipf.Uint64()]
		} else {
			for {
				q = t.draw()
				if key := q.path + "?" + q.rawQuery; !t.recent[key] {
					delete(t.recent, t.ring[t.next])
					t.ring[t.next], t.recent[key] = key, true
					t.next = (t.next + 1) % len(t.ring)
					break
				}
			}
		}
		q.verify = t.rng.Intn(serveVerifyOneIn) == 0
		seq[i] = q
	}
	return seq
}

// recorder is the in-process ResponseWriter: the handler is driven
// directly, so latencies measure the serving plane, not the kernel's
// sockets.
type recorder struct {
	code int
	hdr  http.Header
	body []byte
}

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(c int)   { r.code = c }
func (r *recorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}
func (r *recorder) reset() {
	r.code = http.StatusOK
	clear(r.hdr)
	r.body = r.body[:0]
}

// bodySample is one sampled 200 kept for verification after the timing.
type bodySample struct {
	q    *query
	snap string
	body []byte
}

// clientLog is what one closed-loop client saw.
type clientLog struct {
	latNs   []uint32
	ok      int
	refused int // anything that is not a 200
	hit     int
	stale   int
	miss    int
	snaps   map[string]int // X-Snapshot values seen on 200s
	samples []bodySample
	// Client 0 only: publish latencies (ms) and the snapshot IDs its
	// publishes installed.
	publishs  []float64
	installed []string
	err       error
}

// serveFixture is serve_mixed's input: a server over a published scan
// result, the two results publishes alternate between, and the fixed
// request sequence of each client.
type serveFixture struct {
	e       *env
	srv     *serve.Server
	sig     []byte
	results [2]*core.WorldResult
	seqs    [][]query
}

// scanResult runs a scan_sim-style scan of the shared world. With quiet
// set the world lives through no scheduled events (no Covid calendar):
// the same blocks under the same configuration, so the result carries the
// same run signature, but with different changes detected.
func scanResult(ctx context.Context, e *env, blocks int, quiet bool) (*core.WorldResult, []byte, error) {
	calendar := events.Year2020()
	if quiet {
		calendar = nil
	}
	world, err := e.worldWith(blocks, 1, calendar)
	if err != nil {
		return nil, nil, err
	}
	eng, err := e.engine()
	if err != nil {
		return nil, nil, err
	}
	res, err := (&core.Pipeline{Config: e.cfg, Engine: eng, Workers: e.generators}).Run(ctx, world)
	if err != nil {
		return nil, nil, err
	}
	if res.Report.Degraded() || len(res.Report.BlockErrors) > 0 {
		return nil, nil, fmt.Errorf("gate: clean scan finished degraded")
	}
	return res, core.RunSignature(e.cfg, world), nil
}

func blockIDs(res *core.WorldResult) []uint32 {
	ids := make([]uint32, len(res.Blocks))
	for i := range res.Blocks {
		ids[i] = uint32(res.Blocks[i].ID)
	}
	return ids
}

// serveOne drives one request through the handler and returns its
// latency. req is the client's reusable request.
func serveOne(h http.Handler, rec *recorder, req *http.Request, q *query) time.Duration {
	req.URL.Path, req.URL.RawQuery = q.path, q.rawQuery
	rec.reset()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return time.Since(t0)
}

func newRequest() *http.Request {
	return &http.Request{Method: http.MethodGet, URL: &url.URL{}, Header: http.Header{}}
}

// client runs one closed loop over seq (cycling) until deadline. Client
// 0 also publishes, alternating the two results, after every
// servePublishEvery of its own requests.
func (f *serveFixture) client(id int, seq []query, deadline time.Time, log *clientLog) {
	h := f.srv.Handler()
	rec := &recorder{hdr: http.Header{}}
	req := newRequest()
	log.snaps = map[string]int{}
	log.latNs = make([]uint32, 0, 1<<20)
	published := 0
	for i := 0; ; i++ {
		q := &seq[i%len(seq)]
		d := serveOne(h, rec, req, q)
		log.latNs = append(log.latNs, uint32(min(d, time.Duration(1<<32-1))))
		if rec.code == http.StatusOK {
			log.ok++
			snap := rec.hdr.Get("X-Snapshot")
			log.snaps[snap]++
			switch rec.hdr.Get("X-Cache") {
			case "hit":
				log.hit++
			case "stale":
				log.stale++
				// A stale answer means the server left a revalidation
				// running. A client on a network would not be back before
				// it has run; an in-process one on two cores would starve
				// it while it holds an admission slot, so it yields once.
				runtime.Gosched()
			default:
				log.miss++
			}
			if q.verify {
				log.samples = append(log.samples, bodySample{q: q, snap: snap, body: slices.Clone(rec.body)})
			}
		} else {
			log.refused++
		}
		if id == 0 && (i+1)%servePublishEvery == 0 {
			published++
			t0 := time.Now()
			_, err := f.srv.Publish(f.results[published%2], f.sig, f.e.spec.Start, f.e.spec.End())
			log.publishs = append(log.publishs, msOf(time.Since(t0)))
			if err != nil {
				log.err = fmt.Errorf("publish %d: %w", published, err)
				return
			}
			snapID, _ := f.srv.Current()
			log.installed = append(log.installed, snapID)
		}
		if !time.Now().Before(deadline) {
			return
		}
	}
}

// runServeMixed is the only workload where serve (admission, cache,
// reader, encode) does the work and the analysis does none. The 70/30
// cold/hot split keeps the overall median inside the miss mode while
// still measuring the hit path, and publishes put the write path beside
// the reads.
func runServeMixed(e *env, r *result) error {
	ctx := context.Background()
	n := e.serveBlocks()
	// The sequence keeps well over a cache-full of distinct cold keys at
	// any scale, so a wrapped-around key has been evicted by then.
	seqLen := max(4*serveColdWindow, int(serveSeqLen*e.scale))
	f := &serveFixture{e: e}
	defer func() {
		if f.srv != nil {
			f.srv.Close()
		}
	}()
	setup, err := setupMedian(func(rep int) error {
		res, sig, err := scanResult(ctx, e, n, rep%2 == 1)
		if err != nil {
			return err
		}
		f.results[rep%2], f.sig = res, sig
		dir := filepath.Join(e.dir, fmt.Sprintf("snaps-%d", rep))
		path, err := serve.WriteSnapshot(dir, res, sig, e.spec.Start, e.spec.End())
		if err != nil {
			return err
		}
		if f.srv != nil {
			f.srv.Close()
		}
		f.srv = serve.New(serve.Config{Dir: dir, Retain: 4})
		if err := f.srv.Install(path); err != nil {
			return err
		}
		gen := newTraffic(int64(e.seed), f.srv.CurrentSnapshot(), blockIDs(res))
		f.seqs = f.seqs[:0]
		for c := 0; c < e.generators; c++ {
			f.seqs = append(f.seqs, gen.sequence(seqLen))
		}
		// Warm-up burst, untimed.
		rec, req := &recorder{hdr: http.Header{}}, newRequest()
		for i := 0; i < serveWarmup; i++ {
			serveOne(f.srv.Handler(), rec, req, &f.seqs[0][i%seqLen])
			if rec.code != http.StatusOK {
				return fmt.Errorf("warm-up request %s?%s answered %d", f.seqs[0][i%seqLen].path, f.seqs[0][i%seqLen].rawQuery, rec.code)
			}
		}
		if rep+1 < setupReps {
			f.results[(rep+1)%2] = nil // the next repetition rebuilds it; two results live, not three
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Reference readers, one per distinct result, for the body checks.
	refs := map[string]*serve.Snapshot{}
	for i, res := range f.results {
		path, err := serve.WriteSnapshot(filepath.Join(e.dir, "refs"), res, f.sig, e.spec.Start, e.spec.End())
		if err != nil {
			return err
		}
		sn, err := serve.OpenSnapshot(path)
		if err != nil {
			return err
		}
		defer sn.Close()
		if refs[sn.ID()] != nil {
			return fmt.Errorf("gate: the two published results encode to the same snapshot %s; publishes would not change the ID", sn.ID())
		}
		refs[sn.ID()] = sn
		e.logf("serve_mixed: result %d is snapshot %s (%d cells, %d blocks, %d daily rows)", i, sn.ID(), sn.Meta().Cells, sn.Meta().Blocks, sn.Meta().DailyRows)
	}

	logs := make([]clientLog, e.generators)
	first, _ := f.srv.Current()
	logs[0].installed = []string{first}
	var wg sync.WaitGroup
	c0, t0 := cpuTime(), time.Now()
	deadline := t0.Add(time.Duration(e.seconds * float64(time.Second)))
	for c := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.client(c, f.seqs[c], deadline, &logs[c])
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(t0), cpuTime()-c0

	for i, snap := range logs[0].installed {
		if refs[snap] == nil {
			return fmt.Errorf("gate: install %d produced snapshot %q, which neither result encodes to", i, snap)
		}
		if i > 0 && snap == logs[0].installed[i-1] {
			return fmt.Errorf("gate: publish %d did not change the snapshot ID %s", i, snap)
		}
	}
	var (
		all               []uint32
		chunkP99          []float64
		ok, refused       int
		hit, stale, miss  int
		verified, publish int
	)
	for c := range logs {
		l := &logs[c]
		if l.err != nil {
			return l.err
		}
		ok, refused = ok+l.ok, refused+l.refused
		hit, stale, miss = hit+l.hit, stale+l.stale, miss+l.miss
		for lo := 0; lo+serveChunk <= len(l.latNs); lo += serveChunk {
			chunk := slices.Clone(l.latNs[lo : lo+serveChunk])
			slices.Sort(chunk)
			chunkP99 = append(chunkP99, float64(chunk[serveChunk*99/100])/1e6)
		}
		all = append(all, l.latNs...)
		// Gates: every 200 names a snapshot that was installed, and the
		// sampled bodies are what the reader answers directly.
		for snap, seen := range l.snaps {
			if !slices.Contains(logs[0].installed, snap) {
				return fmt.Errorf("gate: %d responses carried X-Snapshot %q, which was never installed", seen, snap)
			}
		}
		for i := range l.samples {
			s := &l.samples[i]
			if err := verifyBody(ctx, refs[s.snap], s.q, s.body); err != nil {
				return fmt.Errorf("gate: %s?%s on snapshot %s: %w", s.q.path, s.q.rawQuery, s.snap, err)
			}
		}
		verified += len(l.samples)
	}
	if len(chunkP99) == 0 {
		// A run too short for one full chunk: take the p99 of what there is.
		slices.Sort(all)
		chunkP99 = append(chunkP99, float64(all[len(all)*99/100])/1e6)
	}
	pubMs := logs[0].publishs
	publish = len(pubMs)
	if publish == 0 {
		// Too short for the publish cadence: time one publish now, so the
		// write path is still measured and checked.
		t0 := time.Now()
		if _, err := f.srv.Publish(f.results[1], f.sig, e.spec.Start, e.spec.End()); err != nil {
			return err
		}
		pubMs = append(pubMs, msOf(time.Since(t0)))
	}
	slices.Sort(all)
	st := f.srv.StatsNow()
	e.logf("serve_mixed: %d requests (%d hit, %d stale, %d miss, %d refused), %d publishes, %d bodies verified, %d snapshots retired",
		len(all), hit, stale, miss, refused, publish, verified, st.Retired)
	r.Attempted = len(all) + len(pubMs)
	r.Failed = refused
	r.set("setup_s", setup, setupReps)
	r.set("throughput_per_s", float64(ok)/wall.Seconds(), len(all))
	r.set("latency_ms_p50", float64(all[len(all)/2])/1e6, len(all))
	r.set("latency_ms_tail", median(chunkP99), len(chunkP99))
	r.set("handoff_ms", median(pubMs), len(pubMs))
	r.set("cpu_us_per_op", usOf(cpu)/float64(len(all)), len(all))
	return nil
}

// The response bodies, as the server encodes them.
type (
	cellBody struct {
		Cell       string    `json:"cell"`
		Continent  string    `json:"continent"`
		Responsive int       `json:"responsive"`
		CS         int       `json:"change_sensitive"`
		StartDay   int64     `json:"start_day"`
		Frac       []float64 `json:"frac"`
		Count      []int     `json:"count"`
	}
	continentBody struct {
		Continent string    `json:"continent"`
		CS        int       `json:"change_sensitive"`
		StartDay  int64     `json:"start_day"`
		Frac      []float64 `json:"frac"`
	}
	topkBody struct {
		Dir   string `json:"dir"`
		Cells []struct {
			Cell     string  `json:"cell"`
			CS       int     `json:"change_sensitive"`
			Alarms   int     `json:"alarms"`
			PeakFrac float64 `json:"peak_frac"`
		} `json:"cells"`
	}
	blockBody struct {
		ID      uint32             `json:"id"`
		Cell    string             `json:"cell"`
		Changes []serve.ChangeView `json:"changes"`
	}
)

// direct puts q to the Snapshot reader, bypassing the server.
func direct(ctx context.Context, sn *serve.Snapshot, q *query) (any, error) {
	switch q.class {
	case queryCell:
		series, ok, err := sn.CellQuery(ctx, q.cell, q.dir, q.from, q.to)
		if err == nil && !ok {
			err = fmt.Errorf("cell %v not in snapshot", q.cell)
		}
		return series, err
	case queryContinent:
		return sn.ContinentQuery(ctx, q.cont, q.from, q.to)
	case queryTopK:
		return sn.TopK(ctx, q.k, q.dir, q.from, q.to)
	default:
		changes, cell, ok := sn.BlockChanges(q.id)
		if !ok {
			return nil, fmt.Errorf("block %d not in snapshot", q.id)
		}
		return blockBody{ID: q.id, Cell: cell.String(), Changes: changes}, nil
	}
}

// verifyBody checks a served body against the reader's direct answer.
func verifyBody(ctx context.Context, sn *serve.Snapshot, q *query, body []byte) error {
	want, err := direct(ctx, sn, q)
	if err != nil {
		return err
	}
	mismatch := func(got any) error {
		return fmt.Errorf("served %+v, reader answers %+v", got, want)
	}
	switch want := want.(type) {
	case *serve.CellSeries:
		var got cellBody
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Cell != want.Cell.String() || got.Continent != want.Continent.String() ||
			got.Responsive != want.Responsive || got.CS != want.CS || got.StartDay != want.StartDay ||
			!slices.Equal(got.Frac, want.Frac) || !slices.Equal(got.Count, want.Count) {
			return mismatch(got)
		}
	case *serve.ContinentSeries:
		var got continentBody
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Continent != want.Continent.String() || got.CS != want.CS || got.StartDay != want.StartDay ||
			!slices.Equal(got.Frac, want.Frac) {
			return mismatch(got)
		}
	case []serve.TopCell:
		var got topkBody
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Dir != q.dir.String() || len(got.Cells) != len(want) {
			return mismatch(got)
		}
		for i, c := range got.Cells {
			if c.Cell != want[i].Cell.String() || c.CS != want[i].CS || c.Alarms != want[i].Alarms || c.PeakFrac != want[i].PeakFrac {
				return mismatch(got)
			}
		}
	case blockBody:
		var got blockBody
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.ID != want.ID || got.Cell != want.Cell || !slices.Equal(got.Changes, want.Changes) {
			return mismatch(got)
		}
	}
	return nil
}
