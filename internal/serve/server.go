package serve

// The degradation-aware query server. One Server owns the current
// snapshot (behind an atomic pointer, refcounted per request), the
// admission pool, and the response cache, and exposes the HTTP surface:
//
//	GET /v1/cell?lat=&lon=[&dir=down|up][&from=&to=]   point read
//	GET /v1/continent?name=Asia[&from=&to=]            bounded aggregate
//	GET /v1/topk?k=10[&dir=][&from=&to=]               full ranking scan
//	GET /v1/block?id=N                                 change events
//	GET /v1/stats                                      serving-plane health
//	GET /healthz                                       load-balancer probe
//
// Every 5xx the plane emits deliberately is a 503 with Retry-After;
// anything else would teach clients to retry-storm. The swap path
// (Install/LoadLatest) verifies before exposing, quarantines what fails,
// and never drops the last-good snapshot on a failed swap.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/storage"
)

// Config tunes a Server. The zero value serves with the defaults noted
// per field.
type Config struct {
	// MaxInflight bounds admitted-but-unfinished requests across all
	// classes (default 64); per-class ceilings derive from it (see
	// newAdmission).
	MaxInflight int
	// QueryTimeout is the per-request deadline propagated into snapshot
	// disk reads (default 2s).
	QueryTimeout time.Duration
	// FreshTTL and StaleTTL tune the response cache (defaults 5s fresh,
	// 50s stale-servable).
	FreshTTL, StaleTTL time.Duration
	// ExpectSignature pins the run signature snapshots must carry. Empty
	// pins to the first snapshot installed, so a later swap can never
	// cross runs unnoticed.
	ExpectSignature []byte
	// Dir is the snapshot directory used by LoadLatest and as the
	// quarantine destination.
	Dir string
	// Retain keeps the newest Retain snapshots on disk, garbage-collecting
	// older ones after each successful install (see RetainSnapshots).
	// Zero disables retention GC. Snapshots still serving draining
	// readers and quarantined files are never collected.
	Retain int
	// DiskBudget caps Dir's total bytes. Publish refuses to write a
	// snapshot that would push the directory past it (after trying a
	// retention pass), returning ErrDiskBudget. Zero means unlimited.
	DiskBudget int64
	// FS is the filesystem the swap and retention paths go through
	// (default storage.OS); tests inject a faults.FS here.
	FS storage.FS
	// cacheCap bounds the response cache's entries (default 4096);
	// in-package tests shrink it.
	cacheCap int
}

// retryAfter is the Retry-After hint, in seconds, attached to every 503.
const retryAfter = "1"

func (c Config) withDefaults() Config {
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 2 * time.Second
	}
	if c.FS == nil {
		c.FS = storage.OS
	}
	return c
}

// Server serves result queries from the current snapshot.
type Server struct {
	cfg   Config
	admit *admission
	cache *responseCache
	cur   atomic.Pointer[Snapshot]
	mux   *http.ServeMux

	// swapMu serializes Install/LoadLatest/Publish; queries never take it.
	swapMu    sync.Mutex
	pinnedSig []byte
	// history holds previously installed snapshots whose readers may
	// still be draining; retention GC must not delete their files until
	// the last reader releases. Guarded by swapMu.
	history []*Snapshot

	swaps          atomic.Uint64
	quarantined    atomic.Uint64
	retired        atomic.Uint64
	publishRefused atomic.Uint64
	diskBytes      atomic.Int64
	lastSwapErr    atomic.Value // string
	lastGCErr      atomic.Value // string

	// revalMu guards the in-flight revalidation set (singleflight).
	revalMu sync.Mutex
	reval   map[string]bool
}

// New builds a Server; install a snapshot before serving traffic (the
// endpoints answer 503 until one is live).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		admit:     newAdmission(cfg.MaxInflight),
		cache:     newResponseCache(cfg.cacheCap, cfg.FreshTTL, cfg.StaleTTL),
		mux:       http.NewServeMux(),
		pinnedSig: append([]byte(nil), cfg.ExpectSignature...),
		reval:     map[string]bool{},
	}
	s.lastSwapErr.Store("")
	s.lastGCErr.Store("")
	s.mux.HandleFunc("/v1/cell", func(w http.ResponseWriter, r *http.Request) {
		s.handle(w, r, ClassCell, s.computeCell)
	})
	s.mux.HandleFunc("/v1/continent", func(w http.ResponseWriter, r *http.Request) {
		s.handle(w, r, ClassRegion, s.computeContinent)
	})
	s.mux.HandleFunc("/v1/topk", func(w http.ResponseWriter, r *http.Request) {
		s.handle(w, r, ClassTopK, s.computeTopK)
	})
	s.mux.HandleFunc("/v1/block", func(w http.ResponseWriter, r *http.Request) {
		s.handle(w, r, ClassCell, s.computeBlock)
	})
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Close releases the current snapshot and any still-draining
// predecessors.
func (s *Server) Close() {
	s.swapMu.Lock()
	hist := s.history
	s.history = nil
	s.swapMu.Unlock()
	for _, sn := range hist {
		sn.Close()
	}
	if old := s.cur.Swap(nil); old != nil {
		old.Close()
	}
}

// CurrentSnapshot returns the live snapshot (nil when none is
// installed), for instrumentation and fault injection via
// Snapshot.SetReaderAt. Callers must not Close it; the server owns its
// lifecycle.
func (s *Server) CurrentSnapshot() *Snapshot { return s.cur.Load() }

// Current returns the live snapshot's ID and path ("" when none).
func (s *Server) Current() (id, path string) {
	if sn := s.cur.Load(); sn != nil {
		return sn.ID(), sn.Path()
	}
	return "", ""
}

// --- swap protocol -------------------------------------------------------

// errQuarantined wraps swap failures that moved the file aside.
var errQuarantined = errors.New("snapshot quarantined")

// Install verifies the snapshot at path and atomically swaps it in. On
// any fault — torn file, bit flip, foreign run signature — the file is
// quarantined (renamed *.quarantined), the error returned, and the
// server keeps serving the last-good snapshot untouched.
func (s *Server) Install(path string) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	sn, err := s.vet(path)
	if err != nil {
		s.lastSwapErr.Store(err.Error())
		return err
	}
	old := s.cur.Swap(sn)
	s.cache.bumpEpoch()
	s.swaps.Add(1)
	s.lastSwapErr.Store("")
	if old != nil {
		old.Close()
		// Keep the displaced snapshot visible to retention GC until its
		// last reader drains; its file must outlive in-flight requests.
		s.history = append(s.history, old)
	}
	s.gcLocked()
	return nil
}

// gcLocked prunes drained history entries and, when retention is
// configured, retires snapshots beyond the newest cfg.Retain. Caller
// holds swapMu.
func (s *Server) gcLocked() {
	kept := s.history[:0]
	for _, sn := range s.history {
		if sn.InUse() {
			kept = append(kept, sn)
		}
	}
	s.history = kept
	if s.cfg.Retain > 0 && s.cfg.Dir != "" {
		removed, err := RetainSnapshots(s.cfg.FS, s.cfg.Dir, s.cfg.Retain, s.inUsePath)
		s.retired.Add(uint64(len(removed)))
		if err != nil {
			s.lastGCErr.Store(err.Error())
		} else {
			s.lastGCErr.Store("")
		}
	}
	s.measureDiskLocked()
}

// inUsePath reports whether path backs the live snapshot or a
// predecessor still draining readers. Caller holds swapMu.
func (s *Server) inUsePath(path string) bool {
	if sn := s.cur.Load(); sn != nil && sn.Path() == path {
		return true
	}
	for _, sn := range s.history {
		if sn.Path() == path && sn.InUse() {
			return true
		}
	}
	return false
}

// measureDiskLocked refreshes the cached directory byte count so
// StatsNow stays a pure in-memory read. Caller holds swapMu.
func (s *Server) measureDiskLocked() {
	if s.cfg.Dir == "" {
		return
	}
	if n, err := storage.DirBytes(s.cfg.FS, s.cfg.Dir); err == nil {
		s.diskBytes.Store(n)
	}
}

// ErrDiskBudget marks a publish refused because the snapshot directory
// is at its byte budget and retention GC could not free enough space.
var ErrDiskBudget = errors.New("serve: snapshot directory over disk budget")

// Publish encodes res, writes it into cfg.Dir under the next sequence
// number, and installs it — the write side of the serving plane under
// storage governance. When cfg.DiskBudget is set and the new snapshot
// would push the directory past it, Publish first runs a retention
// pass; if the directory is still too full it refuses with
// ErrDiskBudget, shedding the publish rather than filling the disk,
// and the server keeps serving the last-good snapshot.
func (s *Server) Publish(res *core.WorldResult, sig []byte, start, end int64) (string, error) {
	data, err := EncodeSnapshot(res, sig, start, end)
	if err != nil {
		return "", err
	}
	s.swapMu.Lock()
	if s.cfg.DiskBudget > 0 {
		used, err := storage.DirBytes(s.cfg.FS, s.cfg.Dir)
		if err != nil {
			s.swapMu.Unlock()
			return "", err
		}
		if used+int64(len(data)) > s.cfg.DiskBudget {
			s.gcLocked()
			used, _ = storage.DirBytes(s.cfg.FS, s.cfg.Dir)
			if used+int64(len(data)) > s.cfg.DiskBudget {
				s.publishRefused.Add(1)
				s.swapMu.Unlock()
				return "", fmt.Errorf("serve: publishing %d-byte snapshot into %s (%d of %d budget bytes used): %w",
					len(data), s.cfg.Dir, used, s.cfg.DiskBudget, ErrDiskBudget)
			}
		}
	}
	path, err := writeSnapshotBytes(s.cfg.FS, s.cfg.Dir, data)
	s.measureDiskLocked()
	s.swapMu.Unlock()
	if err != nil {
		return "", err
	}
	return path, s.Install(path)
}

// vet runs the full pre-swap check and returns an open snapshot, or
// quarantines the file and explains. Caller holds swapMu.
func (s *Server) vet(path string) (*Snapshot, error) {
	rep, err := VerifySnapshot(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading snapshot %s: %w", path, err)
	}
	if !rep.Clean() {
		s.quarantine(path)
		return nil, fmt.Errorf("serve: snapshot %s failed verification (%s): %w",
			filepath.Base(path), rep.Faults[0], errQuarantined)
	}
	if len(s.pinnedSig) > 0 && !bytes.Equal(rep.Meta.Signature, s.pinnedSig) {
		s.quarantine(path)
		return nil, fmt.Errorf("serve: snapshot %s belongs to a different run (foreign signature): %w",
			filepath.Base(path), errQuarantined)
	}
	sn, err := OpenSnapshot(path)
	if err != nil {
		s.quarantine(path)
		return nil, fmt.Errorf("serve: opening snapshot: %w (%w)", err, errQuarantined)
	}
	if len(s.pinnedSig) == 0 {
		s.pinnedSig = append([]byte(nil), sn.Meta().Signature...)
	}
	return sn, nil
}

// quarantine moves a failed snapshot aside so LoadLatest never retries
// it; the *.quarantined suffix drops it from listSnapshots.
func (s *Server) quarantine(path string) {
	s.quarantined.Add(1)
	_ = s.cfg.FS.Rename(path, path+".quarantined")
}

// LoadLatest scans cfg.Dir newest-first, quarantines snapshots that fail
// verification, and installs the first good one — the resume-on-last-good
// path after a crashed writer left a torn file at the head of the
// directory. It returns the installed path.
func (s *Server) LoadLatest() (string, error) {
	names, err := listSnapshots(s.cfg.Dir)
	if err != nil {
		return "", err
	}
	var firstErr error
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(s.cfg.Dir, names[i])
		if id, cur := s.Current(); cur == path && id != "" {
			return path, nil // already serving the newest good snapshot
		}
		if err := s.Install(path); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return path, nil
	}
	if firstErr != nil {
		return "", fmt.Errorf("serve: no loadable snapshot in %s: %w", s.cfg.Dir, firstErr)
	}
	return "", fmt.Errorf("serve: no snapshots in %s", s.cfg.Dir)
}

// --- request path --------------------------------------------------------

// computeFn renders one endpoint's response body against a snapshot.
type computeFn func(ctx context.Context, sn *Snapshot, r *http.Request) (interface{}, error)

// errBadRequest wraps client errors (400 instead of 500).
type errBadRequest struct{ error }

// errNotFound marks an unknown cell/block (404).
type errNotFound struct{ error }

func badRequest(format string, args ...interface{}) error {
	return errBadRequest{fmt.Errorf(format, args...)}
}

// handle is the shared request path: cache → admission → deadline →
// compute → cache fill. The degradation ladder under stress is fresh
// hit → stale hit → shed (503 + Retry-After); a deadline blown inside
// compute (slow disk) degrades exactly like a shed.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, class Class, compute computeFn) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	key := r.URL.Path + "?" + r.URL.Query().Encode() // Encode sorts keys: canonical
	ent, fresh := s.cache.get(key)
	if fresh {
		s.writeCached(w, ent, "hit")
		return
	}
	sn := s.acquireCurrent()
	if sn == nil {
		s.shedResponse(w, "no snapshot loaded")
		return
	}
	if !s.admit.tryAdmit(class) {
		sn.Release()
		if ent != nil {
			// Overload with a stale answer in hand: serve it, marked.
			s.writeCached(w, ent, "stale")
			return
		}
		s.shedResponse(w, "overloaded")
		return
	}
	if ent != nil {
		// Stale hit with capacity to spare: serve the stale body now and
		// revalidate in the background (stale-while-revalidate proper).
		s.admit.release()
		s.writeCached(w, ent, "stale")
		s.revalidate(key, class, compute, r.Clone(context.Background()))
		sn.Release()
		return
	}
	defer s.admit.release()
	defer sn.Release()
	body, snapID, err := s.render(sn, compute, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.cache.put(key, body, snapID)
	s.writeBody(w, body, snapID, "miss")
}

// render runs compute under the per-request deadline and marshals.
func (s *Server) render(sn *Snapshot, compute computeFn, r *http.Request) (body []byte, snapID string, err error) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	defer cancel()
	v, err := compute(ctx, sn, r)
	if err != nil {
		return nil, "", err
	}
	body, err = json.Marshal(v)
	if err != nil {
		return nil, "", err
	}
	return body, sn.ID(), nil
}

// revalidate recomputes a stale cache entry in the background, bounded
// by singleflight per key and by the admission pool (a revalidation that
// cannot be admitted is simply skipped — the stale entry stays).
func (s *Server) revalidate(key string, class Class, compute computeFn, r *http.Request) {
	s.revalMu.Lock()
	if s.reval[key] {
		s.revalMu.Unlock()
		return
	}
	s.reval[key] = true
	s.revalMu.Unlock()
	if !s.admit.tryAdmit(class) {
		s.revalDone(key)
		return
	}
	go func() {
		defer s.revalDone(key)
		defer s.admit.release()
		sn := s.acquireCurrent()
		if sn == nil {
			return
		}
		defer sn.Release()
		if body, snapID, err := s.render(sn, compute, r); err == nil {
			s.cache.put(key, body, snapID)
		}
	}()
}

func (s *Server) revalDone(key string) {
	s.revalMu.Lock()
	delete(s.reval, key)
	s.revalMu.Unlock()
}

// acquireCurrent pins the live snapshot for one request.
func (s *Server) acquireCurrent() *Snapshot {
	for {
		sn := s.cur.Load()
		if sn == nil {
			return nil
		}
		if sn.Acquire() {
			return sn
		}
		// Lost a swap race: the pointer moved; retry against the new one.
	}
}

// shedResponse is the only deliberate 5xx: 503 with Retry-After.
func (s *Server) shedResponse(w http.ResponseWriter, why string) {
	w.Header().Set("Retry-After", retryAfter)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintf(w, `{"error":%q}`, why)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	var br errBadRequest
	var nf errNotFound
	switch {
	case errors.As(err, &br):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
	case errors.As(err, &nf):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// The request blew its deadline inside a snapshot read — a slow
		// or stalled disk. Same contract as a shed: retryable 503.
		s.shedResponse(w, "deadline exceeded")
	default:
		// Unexpected (snapshot read error after verification): still a
		// 503 so clients back off, but counted via lastSwapErr-style
		// visibility is not needed — verification should make this
		// unreachable.
		s.shedResponse(w, "internal read error")
	}
}

func (s *Server) writeCached(w http.ResponseWriter, ent *cached, state string) {
	s.writeBody(w, ent.body, ent.snapID, state)
}

func (s *Server) writeBody(w http.ResponseWriter, body []byte, snapID, cacheState string) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Snapshot", snapID)
	h.Set("X-Cache", cacheState)
	if cacheState == "stale" {
		// RFC 7234 §5.5.1: response is stale (110) — explicit, so
		// clients can tell degraded answers from fresh ones.
		h.Set("Warning", `110 - "response is stale"`)
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// --- endpoint computations ----------------------------------------------

// parseDay accepts a UTC date (2020-03-01) or a raw day index.
func parseDay(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	if t, err := time.Parse("2006-01-02", s); err == nil {
		return t.Unix() / netsim.SecondsPerDay, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad day %q (want YYYY-MM-DD or a day index)", s)
	}
	return n, nil
}

func parseWindow(r *http.Request) (from, to int64, err error) {
	if from, err = parseDay(r.URL.Query().Get("from")); err != nil {
		return 0, 0, badRequest("from: %v", err)
	}
	if to, err = parseDay(r.URL.Query().Get("to")); err != nil {
		return 0, 0, badRequest("to: %v", err)
	}
	return from, to, nil
}

func parseDir(r *http.Request) (changepoint.Direction, error) {
	switch r.URL.Query().Get("dir") {
	case "", "down":
		return changepoint.Down, nil
	case "up":
		return changepoint.Up, nil
	default:
		return 0, badRequest("bad dir %q (want down or up)", r.URL.Query().Get("dir"))
	}
}

// cellResponse is the /v1/cell body.
type cellResponse struct {
	Cell       string    `json:"cell"`
	Lat        int       `json:"lat"`
	Lon        int       `json:"lon"`
	Continent  string    `json:"continent"`
	Responsive int       `json:"responsive"`
	CS         int       `json:"change_sensitive"`
	StartDay   int64     `json:"start_day"`
	Frac       []float64 `json:"frac"`
	Count      []int     `json:"count"`
}

func (s *Server) computeCell(ctx context.Context, sn *Snapshot, r *http.Request) (interface{}, error) {
	q := r.URL.Query()
	lat, err1 := strconv.ParseFloat(q.Get("lat"), 64)
	lon, err2 := strconv.ParseFloat(q.Get("lon"), 64)
	if err1 != nil || err2 != nil {
		return nil, badRequest("lat and lon are required coordinates")
	}
	dir, err := parseDir(r)
	if err != nil {
		return nil, err
	}
	from, to, err := parseWindow(r)
	if err != nil {
		return nil, err
	}
	key := geo.CellOf(lat, lon)
	series, ok, err := sn.CellQuery(ctx, key, dir, from, to)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errNotFound{fmt.Errorf("cell %v not in snapshot", key)}
	}
	return &cellResponse{
		Cell:       series.Cell.String(),
		Lat:        series.Cell.Lat,
		Lon:        series.Cell.Lon,
		Continent:  series.Continent.String(),
		Responsive: series.Responsive,
		CS:         series.CS,
		StartDay:   series.StartDay,
		Frac:       series.Frac,
		Count:      series.Count,
	}, nil
}

// topkResponse is the /v1/topk body.
type topkResponse struct {
	Dir   string      `json:"dir"`
	Cells []topkEntry `json:"cells"`
}

type topkEntry struct {
	Cell     string  `json:"cell"`
	Lat      int     `json:"lat"`
	Lon      int     `json:"lon"`
	CS       int     `json:"change_sensitive"`
	Alarms   int     `json:"alarms"`
	PeakFrac float64 `json:"peak_frac"`
}

func (s *Server) computeTopK(ctx context.Context, sn *Snapshot, r *http.Request) (interface{}, error) {
	k := 10
	if kq := r.URL.Query().Get("k"); kq != "" {
		n, err := strconv.Atoi(kq)
		if err != nil || n < 1 || n > 1000 {
			return nil, badRequest("bad k %q (want 1..1000)", kq)
		}
		k = n
	}
	dir, err := parseDir(r)
	if err != nil {
		return nil, err
	}
	from, to, err := parseWindow(r)
	if err != nil {
		return nil, err
	}
	top, err := sn.TopK(ctx, k, dir, from, to)
	if err != nil {
		return nil, err
	}
	resp := &topkResponse{Dir: dir.String(), Cells: []topkEntry{}}
	for _, tc := range top {
		resp.Cells = append(resp.Cells, topkEntry{
			Cell: tc.Cell.String(), Lat: tc.Cell.Lat, Lon: tc.Cell.Lon,
			CS: tc.CS, Alarms: tc.Alarms, PeakFrac: tc.PeakFrac,
		})
	}
	return resp, nil
}

// continentResponse is the /v1/continent body.
type continentResponse struct {
	Continent string    `json:"continent"`
	CS        int       `json:"change_sensitive"`
	StartDay  int64     `json:"start_day"`
	Frac      []float64 `json:"frac"`
}

func (s *Server) computeContinent(ctx context.Context, sn *Snapshot, r *http.Request) (interface{}, error) {
	name := r.URL.Query().Get("name")
	var cont geo.Continent
	found := false
	for _, c := range geo.Continents() {
		if c.String() == name {
			cont, found = c, true
			break
		}
	}
	if !found {
		return nil, badRequest("bad continent %q", name)
	}
	from, to, err := parseWindow(r)
	if err != nil {
		return nil, err
	}
	series, err := sn.ContinentQuery(ctx, cont, from, to)
	if err != nil {
		return nil, err
	}
	return &continentResponse{
		Continent: series.Continent.String(),
		CS:        series.CS,
		StartDay:  series.StartDay,
		Frac:      series.Frac,
	}, nil
}

// blockResponse is the /v1/block body.
type blockResponse struct {
	ID      uint32       `json:"id"`
	Cell    string       `json:"cell"`
	Changes []ChangeView `json:"changes"`
}

func (s *Server) computeBlock(ctx context.Context, sn *Snapshot, r *http.Request) (interface{}, error) {
	idq := r.URL.Query().Get("id")
	id, err := strconv.ParseUint(idq, 10, 32)
	if err != nil {
		return nil, badRequest("bad block id %q", idq)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	changes, cell, ok := sn.BlockChanges(uint32(id))
	if !ok {
		return nil, errNotFound{fmt.Errorf("block %d not in snapshot", id)}
	}
	if changes == nil {
		changes = []ChangeView{}
	}
	return &blockResponse{ID: uint32(id), Cell: cell.String(), Changes: changes}, nil
}

// --- health & stats ------------------------------------------------------

// Stats is the /v1/stats body: one page of serving-plane health.
type Stats struct {
	SnapshotID   string         `json:"snapshot_id"`
	SnapshotPath string         `json:"snapshot_path"`
	Degraded     bool           `json:"degraded"`
	Analyzed     int            `json:"analyzed_blocks"`
	Cells        int            `json:"cells"`
	Swaps        uint64         `json:"swaps"`
	Quarantined  uint64         `json:"quarantined"`
	LastSwapErr  string         `json:"last_swap_error,omitempty"`
	Admission    AdmissionStats `json:"admission"`
	Cache        CacheStats     `json:"cache"`
	// Storage governance: snapshots retired by retention GC, publishes
	// refused at the disk budget, and the snapshot directory's byte
	// count as of the last install/publish (cached — stats never touch
	// the disk).
	Retired        uint64 `json:"snapshots_retired"`
	PublishRefused uint64 `json:"publishes_refused"`
	DiskBytes      int64  `json:"disk_bytes"`
	DiskBudget     int64  `json:"disk_budget,omitempty"`
	LastGCErr      string `json:"last_gc_error,omitempty"`
}

// StatsNow snapshots the serving-plane counters (also served on
// /v1/stats; exported for the load harness and chaos tests).
func (s *Server) StatsNow() Stats {
	st := Stats{
		Swaps:          s.swaps.Load(),
		Quarantined:    s.quarantined.Load(),
		LastSwapErr:    s.lastSwapErr.Load().(string),
		Admission:      s.admit.stats(),
		Cache:          s.cache.stats(),
		Retired:        s.retired.Load(),
		PublishRefused: s.publishRefused.Load(),
		DiskBytes:      s.diskBytes.Load(),
		DiskBudget:     s.cfg.DiskBudget,
		LastGCErr:      s.lastGCErr.Load().(string),
	}
	if sn := s.cur.Load(); sn != nil {
		st.SnapshotID = sn.ID()
		st.SnapshotPath = sn.Path()
		st.Degraded = sn.Meta().Degraded
		st.Analyzed = sn.Meta().AnalyzedBlocks
		st.Cells = sn.Meta().Cells
	}
	return st
}

// handleStats always answers — diagnostics must survive overload — so it
// bypasses admission entirely; it reads only in-memory counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body, err := json.Marshal(s.StatsNow())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if sn := s.cur.Load(); sn == nil {
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, "no snapshot loaded", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}
