package serve

// Closed-loop load harness. RunLoad drives an http.Handler directly
// (no sockets — latencies measure the serving plane, not the kernel)
// with a deterministic per-worker request mix across the three admission
// classes, and reports per-class latency quantiles plus the exact
// status/header discipline the robustness contract promises: every 200
// carries X-Snapshot, every 503 carries Retry-After, nothing else is
// ever emitted. The chaos test cranks Workers to 10× the admission
// ceiling and asserts the report stays inside those bounds while
// snapshots swap and fail underneath.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/stats"
)

// LoadOptions shapes a load run. Zero values take the noted defaults.
type LoadOptions struct {
	// Workers is the number of concurrent closed-loop clients (default 8).
	Workers int
	// Requests is how many requests each worker issues (default 200).
	Requests int
	// Seed makes the request mix reproducible (default 1).
	Seed int64
}

// The request mix weights the three classes cell:region:topk as 8:3:1.
const (
	mixCell   = 8
	mixRegion = 3
	mixTopK   = 1
)

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Requests <= 0 {
		o.Requests = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ClassStats is one admission class's slice of a load report.
type ClassStats struct {
	Count int     `json:"count"`
	OK    int     `json:"ok"`
	Shed  int     `json:"shed"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	latMs []float64
}

// LoadReport summarizes a load run.
type LoadReport struct {
	Total int `json:"total"`
	// OK counts 200s; Stale the subset served from the stale cache tier;
	// Shed the 503s; ShedNoRetryAfter and Other count contract violations
	// (both must be zero for a healthy plane).
	OK               int `json:"ok"`
	Stale            int `json:"stale"`
	Shed             int `json:"shed"`
	ShedNoRetryAfter int `json:"shed_no_retry_after"`
	Other            int `json:"other"`
	// Snapshots maps every X-Snapshot value seen on a 200 to its count —
	// the chaos test checks no foreign or torn snapshot ID ever appears.
	Snapshots map[string]int         `json:"snapshots"`
	Classes   map[string]*ClassStats `json:"classes"`
}

// loadRecorder is a minimal ResponseWriter; httptest would work too, but
// this keeps the harness importable outside _test files without pulling
// a testing package into the binary.
type loadRecorder struct {
	code int
	hdr  http.Header
	body bytes.Buffer
}

func newLoadRecorder() *loadRecorder        { return &loadRecorder{code: http.StatusOK, hdr: http.Header{}} }
func (r *loadRecorder) Header() http.Header { return r.hdr }
func (r *loadRecorder) WriteHeader(c int)   { r.code = c }
func (r *loadRecorder) Write(p []byte) (int, error) {
	return r.body.Write(p)
}

// RunLoad drives h with opts.Workers closed-loop clients drawing cell
// targets from cells and returns the merged report.
func RunLoad(h http.Handler, cells []geo.CellKey, opts LoadOptions) *LoadReport {
	opts = opts.withDefaults()
	continents := geo.Continents()
	type result struct {
		class Class
		code  int
		stale bool
		retry bool
		snap  string
		ms    float64
	}
	perWorker := make([][]result, opts.Workers)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(w)*7919))
			out := make([]result, 0, opts.Requests)
			for i := 0; i < opts.Requests; i++ {
				class, target := pickRequest(rng, cells, continents)
				req, err := http.NewRequest(http.MethodGet, target, nil)
				if err != nil {
					continue
				}
				rec := newLoadRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				out = append(out, result{
					class: class,
					code:  rec.code,
					stale: rec.hdr.Get("X-Cache") == "stale",
					retry: rec.hdr.Get("Retry-After") != "",
					snap:  rec.hdr.Get("X-Snapshot"),
					ms:    float64(time.Since(t0)) / float64(time.Millisecond),
				})
			}
			perWorker[w] = out
		}(w)
	}
	wg.Wait()

	rep := &LoadReport{Snapshots: map[string]int{}, Classes: map[string]*ClassStats{}}
	for c := ClassCell; c < numClasses; c++ {
		rep.Classes[c.String()] = &ClassStats{}
	}
	for _, results := range perWorker {
		for _, r := range results {
			rep.Total++
			cs := rep.Classes[r.class.String()]
			cs.Count++
			cs.latMs = append(cs.latMs, r.ms)
			switch {
			case r.code == http.StatusOK:
				rep.OK++
				cs.OK++
				if r.stale {
					rep.Stale++
				}
				rep.Snapshots[r.snap]++
			case r.code == http.StatusServiceUnavailable:
				rep.Shed++
				cs.Shed++
				if !r.retry {
					rep.ShedNoRetryAfter++
				}
			default:
				rep.Other++
			}
		}
	}
	for _, cs := range rep.Classes {
		if len(cs.latMs) == 0 {
			continue
		}
		sort.Float64s(cs.latMs)
		cs.P50ms = stats.Quantile(cs.latMs, 0.50)
		cs.P99ms = stats.Quantile(cs.latMs, 0.99)
		cs.MaxMs = cs.latMs[len(cs.latMs)-1]
		cs.latMs = nil
	}
	return rep
}

// pickRequest draws one request from the weighted class mix.
func pickRequest(rng *rand.Rand, cells []geo.CellKey, continents []geo.Continent) (Class, string) {
	n := rng.Intn(mixCell + mixRegion + mixTopK)
	switch {
	case n < mixCell && len(cells) > 0:
		lat, lon := cells[rng.Intn(len(cells))].Center()
		v := url.Values{}
		v.Set("lat", fmt.Sprintf("%g", lat))
		v.Set("lon", fmt.Sprintf("%g", lon))
		if rng.Intn(4) == 0 {
			v.Set("dir", "up")
		}
		return ClassCell, "/v1/cell?" + v.Encode()
	case n < mixCell+mixRegion:
		cont := continents[rng.Intn(len(continents))]
		return ClassRegion, "/v1/continent?name=" + url.QueryEscape(cont.String())
	default:
		k := 5 + rng.Intn(20)
		return ClassTopK, fmt.Sprintf("/v1/topk?k=%d", k)
	}
}
