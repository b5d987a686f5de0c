package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/serve"
	"github.com/diurnalnet/diurnal/internal/storage"
)

// streamSection traces the daemon's lockstep life, kill and resume
// included: one span per Ingest, Drain, reopen and Result.
type streamSection struct {
	e    *env
	f    *streamFixture
	last *lockstepPass
	n    int
}

func newStreamSection(ctx context.Context, e *env, blocks int) (section, error) {
	f, err := newStreamFixture(ctx, e, blocks)
	if err != nil {
		return nil, err
	}
	return &streamSection{e: e, f: f}, nil
}

func (s *streamSection) pass(ctx context.Context, tr *tracer) error {
	s.n++
	dir := filepath.Join(s.e.dir, fmt.Sprintf("trace-stream-%d", s.n))
	p, err := s.f.lockstep(ctx, dir, len(s.f.rounds), tr)
	if err != nil {
		return err
	}
	s.last = p
	return os.RemoveAll(dir)
}

func (s *streamSection) report(tr *tracer, r *result) error {
	ctx := context.Background()
	self, p := tr.self(), s.last
	rounds := len(s.f.rounds)
	set := func(metric, spanName string) { r.setSpans(metric, self[spanName], time.Millisecond) }
	r.set("stream.feeder.build_ms", msOf(s.f.feederBuild), 1)
	set("stream.wal.ingest_ms_p50", "stream.ingest")
	set("stream.detector.step_ms_p50_refresh", "stream.drain/refresh")
	set("stream.detector.step_ms_p50_norefresh", "stream.drain/norefresh")
	set("stream.result_ms", "stream.result")
	r.set("stream.replay_ms_per_round", msOf(p.resume)/float64(max(p.replayed, 1)), p.replayed)
	r.set("stream.wal.bytes_per_block_round", float64(p.final.DiskBytes)/float64(len(s.f.world)*rounds), rounds)
	r.set("stream.wal.segments", float64(p.final.WALSegments), 1)
	r.set("stream.wal.rotations", float64(p.beforeAbort.Rotations+p.final.Rotations), 1)
	r.set("stream.refreshes", float64(p.final.Refreshes), 1)
	r.set("stream.events", float64(len(p.events)), 1)

	// The saturated life, for the admission queue's high-water mark and
	// the event-identity gate.
	dir := filepath.Join(s.e.dir, "trace-stream-saturated")
	_, events, st, err := s.f.saturated(ctx, dir)
	if err != nil {
		return err
	}
	if err := s.f.checkEvents(p.events, events); err != nil {
		return err
	}
	r.set("stream.queue_max_depth", float64(st.MaxQueueDepth), 1)
	return os.RemoveAll(dir)
}

// serveSection traces the serving plane on one goroutine: the publish
// path stage by stage, then a request sequence in which every rendered
// response is followed by the direct reader call for the same query.
type serveSection struct {
	e       *env
	results [2]*core.WorldResult
	sig     []byte
	seq     []query
	n       int
	// From the latest pass.
	stats     serve.Stats
	snapBytes int
}

func newServeSection(ctx context.Context, e *env, blocks, requests int) (section, error) {
	s := &serveSection{e: e}
	for v := range s.results {
		res, sig, err := scanResult(ctx, e, blocks, v == 1)
		if err != nil {
			return nil, err
		}
		s.results[v], s.sig = res, sig
	}
	path, err := serve.WriteSnapshot(filepath.Join(e.dir, "trace-serve-ref"), s.results[0], s.sig, e.spec.Start, e.spec.End())
	if err != nil {
		return nil, err
	}
	sn, err := serve.OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	defer sn.Close()
	s.seq = newTraffic(int64(e.seed), sn, blockIDs(s.results[0])).sequence(requests)
	return s, nil
}

// publish walks one result through the publish path a stage at a time.
func (s *serveSection) publish(tr *tracer, srv *serve.Server, dir string, seq int) error {
	start, end := s.e.spec.Start, s.e.spec.End()
	path := filepath.Join(dir, serve.SnapshotName(seq))
	sp := tr.begin("serve.snapshot.encode", seq)
	data, err := serve.EncodeSnapshot(s.results[seq%2], s.sig, start, end)
	tr.end(sp)
	if err != nil {
		return err
	}
	s.snapBytes = len(data)
	sp = tr.begin("serve.snapshot.write", seq)
	err = storage.WriteBytesAtomic(storage.OS, path, data)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("serve.snapshot.verify", seq)
	rep, err := serve.VerifySnapshot(path)
	tr.end(sp)
	if err != nil {
		return err
	}
	if !rep.Clean() {
		return fmt.Errorf("gate: fresh snapshot fails verification: %s", rep)
	}
	sp = tr.begin("serve.snapshot.open", seq)
	sn, err := serve.OpenSnapshot(path)
	tr.end(sp)
	if err != nil {
		return err
	}
	sn.Close()
	sp = tr.begin("serve.snapshot.install", seq)
	err = srv.Install(path)
	tr.end(sp)
	return err
}

func (s *serveSection) pass(ctx context.Context, tr *tracer) error {
	s.n++
	dir := filepath.Join(s.e.dir, fmt.Sprintf("trace-serve-%d", s.n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	srv := serve.New(serve.Config{Dir: dir, Retain: 4})
	defer srv.Close()
	const publishes = 6
	for seq := 0; seq < publishes-1; seq++ {
		if err := s.publish(tr, srv, dir, seq); err != nil {
			return err
		}
	}
	h := srv.Handler()
	rec, req := &recorder{hdr: http.Header{}}, newRequest()
	for i := range s.seq {
		if i == len(s.seq)/2 {
			// A swap mid-traffic: cached entries turn stale.
			if err := s.publish(tr, srv, dir, publishes-1); err != nil {
				return err
			}
		}
		q := &s.seq[i]
		root := tr.begin("serve.request", i)
		sp := tr.begin("serve.http", i)
		serveOne(h, rec, req, q)
		tr.end(sp)
		if rec.code != http.StatusOK {
			return fmt.Errorf("%s?%s answered %d", q.path, q.rawQuery, rec.code)
		}
		state := rec.hdr.Get("X-Cache")
		tr.attr(sp, state)
		if state == "miss" {
			sn := srv.CurrentSnapshot()
			sp = tr.begin("serve.reader."+q.class.String(), i)
			_, err := direct(ctx, sn, q)
			tr.end(sp)
			if err != nil {
				return err
			}
			if err := verifyBody(ctx, sn, q, rec.body); err != nil {
				return fmt.Errorf("gate: %s?%s: %w", q.path, q.rawQuery, err)
			}
		}
		tr.end(root)
	}
	s.stats = srv.StatsNow()
	return os.RemoveAll(dir)
}

func (s *serveSection) report(tr *tracer, r *result) error {
	self := tr.self()
	setMs := func(metric, spanName string) { r.setSpans(metric, self[spanName], time.Millisecond) }
	setUs := func(metric, spanName string) { r.setSpans(metric, self[spanName], time.Microsecond) }
	setMs("serve.snapshot.encode_ms", "serve.snapshot.encode")
	setMs("serve.snapshot.write_ms", "serve.snapshot.write")
	setMs("serve.snapshot.verify_ms", "serve.snapshot.verify")
	setMs("serve.snapshot.open_ms", "serve.snapshot.open")
	setMs("serve.snapshot.install_ms", "serve.snapshot.install")
	r.set("serve.snapshot.bytes", float64(s.snapBytes), 1)
	for c := queryCell; c < numQueryClasses; c++ {
		setUs("serve.reader."+c.String()+"_us_p50", "serve.reader."+c.String())
	}
	setUs("serve.http.hit_us_p50", "serve.http/hit")
	setUs("serve.http.miss_us_p50", "serve.http/miss")

	// Per rendered request: the handler's time minus the reader call for
	// the same query.
	render := map[int]int64{}
	var overhead []float64
	for i := range tr.spans {
		sp := &tr.spans[i]
		d := sp.EndNs - sp.StartNs
		switch {
		case sp.Name == "serve.http" && sp.Attr == "miss":
			render[sp.Item] = d
		case sp.Parent >= 0 && tr.spans[sp.Parent].Name == "serve.request" && sp.Name != "serve.http":
			overhead = append(overhead, float64(render[sp.Item]-d)/1e3)
		}
	}
	if len(overhead) == 0 {
		return fmt.Errorf("no rendered request in the traced sequence")
	}
	r.set("serve.http.overhead_us_p50", median(overhead), len(overhead))

	c := s.stats.Cache
	lookups := c.Hits + c.StaleHits + c.Misses
	r.set("serve.cache.hit_ratio", float64(c.Hits)/float64(max(lookups, 1)), int(lookups))
	r.set("serve.cache.stale_served", float64(c.StaleHits), int(lookups))
	var shed uint64
	for _, n := range s.stats.Admission.Shed {
		shed += n
	}
	r.set("serve.admission.shed", float64(shed), int(lookups))
	return nil
}
