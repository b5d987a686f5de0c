package serve

// Server tests: endpoint correctness over HTTP, the degradation ladder
// (fresh cache → stale cache → shed with Retry-After), the admission
// ceilings, and the swap/quarantine protocol.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/faults"
)

func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	path, _, _, _, _ := writeTestSnapshot(t, dir)
	if cfg.Dir == "" {
		cfg.Dir = dir
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	if err := s.Install(path); err != nil {
		t.Fatalf("Install: %v", err)
	}
	return s, dir
}

func get(t *testing.T, s *Server, target string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func TestServerEndpoints(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	cases := []struct {
		target string
		code   int
	}{
		{"/v1/cell?lat=30.5&lon=114.5", http.StatusOK},
		{"/v1/cell?lat=30.5&lon=114.5&dir=up&from=18002&to=18004", http.StatusOK},
		{"/v1/cell?lat=30.5&lon=114.5&from=2019-04-16&to=2019-04-18", http.StatusOK},
		{"/v1/cell?lat=89.5&lon=179.5", http.StatusNotFound},
		{"/v1/cell?lon=114.5", http.StatusBadRequest},
		{"/v1/cell?lat=30.5&lon=114.5&dir=sideways", http.StatusBadRequest},
		{"/v1/topk?k=5", http.StatusOK},
		{"/v1/topk?k=0", http.StatusBadRequest},
		{"/v1/continent?name=Asia", http.StatusOK},
		{"/v1/continent?name=Atlantis", http.StatusBadRequest},
		{"/v1/block?id=1", http.StatusOK},
		{"/v1/block?id=999", http.StatusNotFound},
		{"/v1/block?id=x", http.StatusBadRequest},
		{"/v1/stats", http.StatusOK},
		{"/healthz", http.StatusOK},
	}
	for _, c := range cases {
		rec := get(t, s, c.target)
		if rec.Code != c.code {
			t.Errorf("GET %s = %d, want %d (body %s)", c.target, rec.Code, c.code, rec.Body)
		}
		if rec.Code == http.StatusOK && strings.HasPrefix(c.target, "/v1/") &&
			!strings.HasPrefix(c.target, "/v1/stats") && rec.Header().Get("X-Snapshot") == "" {
			t.Errorf("GET %s: missing X-Snapshot", c.target)
		}
	}
	if rec := get(t, s, "/v1/cell?lat=30.5&lon=114.5"); rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("repeat read not a cache hit: %s", rec.Header().Get("X-Cache"))
	}
	// Methods other than GET are refused.
	req := httptest.NewRequest(http.MethodPost, "/v1/cell?lat=30.5&lon=114.5", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d", rec.Code)
	}
}

func TestServerCellBody(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec := get(t, s, "/v1/cell?lat=30.5&lon=114.5")
	var body cellResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad body: %v", err)
	}
	// Fixture cell (30,114)→key (15,57): 2 CS blocks, 3 down alarms.
	if body.CS != 2 || body.Continent != "Asia" || len(body.Frac) != 10 {
		t.Errorf("body = %+v", body)
	}
	if body.Frac[2] != 1.0 { // both CS blocks alarmed down on day 2
		t.Errorf("day-2 down fraction = %g, want 1.0", body.Frac[2])
	}
}

func TestServerNoSnapshot(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	rec := get(t, s, "/v1/cell?lat=30.5&lon=114.5")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("empty server = %d (Retry-After %q), want 503 with Retry-After",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz = %d, want 503", rec.Code)
	}
	if rec := get(t, s, "/v1/stats"); rec.Code != http.StatusOK {
		t.Errorf("stats must answer without a snapshot, got %d", rec.Code)
	}
}

// TestSheddingOrder saturates the admission pool and checks that topk
// sheds while cell reads still get through — prioritized load shedding.
func TestSheddingOrder(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInflight: 8})
	// Occupy 4 slots (= the topk ceiling): topk sheds, cell still admits.
	for i := 0; i < 4; i++ {
		if !s.admit.tryAdmit(ClassCell) {
			t.Fatal("setup admission failed")
		}
	}
	defer func() {
		for i := 0; i < 4; i++ {
			s.admit.release()
		}
	}()
	if rec := get(t, s, "/v1/topk?k=3"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("topk at ceiling = %d, want 503", rec.Code)
	} else if rec.Header().Get("Retry-After") == "" {
		t.Error("shed without Retry-After")
	}
	if rec := get(t, s, "/v1/cell?lat=30.5&lon=114.5"); rec.Code != http.StatusOK {
		t.Errorf("cell read shed while slots remain: %d", rec.Code)
	}
	st := s.StatsNow()
	if st.Admission.Shed["topk"] == 0 {
		t.Errorf("shed counter not incremented: %+v", st.Admission)
	}
}

// TestStaleCacheUnderOverload: with the pool fully saturated, a request
// whose answer is cached-but-stale gets the stale body (marked), and an
// uncached one gets shed.
func TestStaleCacheUnderOverload(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInflight: 4})
	// Prime the cache, then force staleness via an epoch bump (what a
	// swap does) without touching time.
	if rec := get(t, s, "/v1/cell?lat=30.5&lon=114.5"); rec.Code != http.StatusOK {
		t.Fatalf("prime = %d", rec.Code)
	}
	s.cache.bumpEpoch()
	for i := 0; i < 4; i++ { // saturate every slot
		if !s.admit.tryAdmit(ClassCell) {
			t.Fatal("setup admission failed")
		}
	}
	defer func() {
		for i := 0; i < 4; i++ {
			s.admit.release()
		}
	}()
	rec := get(t, s, "/v1/cell?lat=30.5&lon=114.5")
	if rec.Code != http.StatusOK {
		t.Fatalf("stale-under-overload = %d, want 200", rec.Code)
	}
	if rec.Header().Get("X-Cache") != "stale" || rec.Header().Get("Warning") == "" {
		t.Errorf("stale response unmarked: X-Cache=%q Warning=%q",
			rec.Header().Get("X-Cache"), rec.Header().Get("Warning"))
	}
	if rec := get(t, s, "/v1/cell?lat=36.5&lon=120.5"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("uncached under overload = %d, want 503", rec.Code)
	}
}

// TestStaleRevalidation: a stale hit with free capacity serves stale now
// and refreshes the entry in the background.
func TestStaleRevalidation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if rec := get(t, s, "/v1/cell?lat=30.5&lon=114.5"); rec.Code != http.StatusOK {
		t.Fatalf("prime = %d", rec.Code)
	}
	s.cache.bumpEpoch()
	if rec := get(t, s, "/v1/cell?lat=30.5&lon=114.5"); rec.Header().Get("X-Cache") != "stale" {
		t.Fatalf("expected stale hit, got %q", rec.Header().Get("X-Cache"))
	}
	// The background revalidation lands shortly; then the entry is fresh.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec := get(t, s, "/v1/cell?lat=30.5&lon=114.5")
		if rec.Header().Get("X-Cache") == "hit" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("revalidation never refreshed the entry")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSwapQuarantinesCorrupt(t *testing.T) {
	s, dir := newTestServer(t, Config{})
	goodID, goodPath := s.Current()
	// Write a second snapshot, then corrupt it: Install must quarantine
	// and keep serving the first.
	res, sig, start, end := testResult(t)
	p1, err := WriteSnapshot(dir, res, sig, start, end)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(p1)
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(p1, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Install(p1); err == nil {
		t.Fatal("corrupt snapshot installed")
	}
	if id, path := s.Current(); id != goodID || path != goodPath {
		t.Errorf("current moved off last-good: %s %s", id, path)
	}
	if _, err := os.Stat(p1 + ".quarantined"); err != nil {
		t.Errorf("corrupt snapshot not quarantined: %v", err)
	}
	if st := s.StatsNow(); st.Quarantined != 1 || st.LastSwapErr == "" {
		t.Errorf("stats after failed swap: %+v", st)
	}
	if rec := get(t, s, "/v1/cell?lat=30.5&lon=114.5"); rec.Code != http.StatusOK {
		t.Errorf("serving broken after failed swap: %d", rec.Code)
	}
}

func TestSwapRejectsForeignSignature(t *testing.T) {
	s, dir := newTestServer(t, Config{})
	res, _, start, end := testResult(t)
	foreign := make([]byte, 32) // all zero ≠ fixture signature
	p1, err := WriteSnapshot(dir, res, foreign, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Install(p1); err == nil || !strings.Contains(err.Error(), "foreign") {
		t.Fatalf("foreign snapshot: err = %v", err)
	}
	if _, err := os.Stat(p1 + ".quarantined"); err != nil {
		t.Errorf("foreign snapshot not quarantined: %v", err)
	}
}

func TestSwapUnderTraffic(t *testing.T) {
	s, dir := newTestServer(t, Config{MaxInflight: 64})
	res, sig, start, end := testResult(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := get(t, s, "/v1/cell?lat=30.5&lon=114.5")
				if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable {
					t.Errorf("status %d under swap", rec.Code)
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		p, err := WriteSnapshot(dir, res, sig, start, end)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Install(p); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if st := s.StatsNow(); st.Swaps != 6 { // initial install + 5
		t.Errorf("swaps = %d, want 6", st.Swaps)
	}
}

func TestLoadLatestSkipsDamaged(t *testing.T) {
	dir := t.TempDir()
	res, sig, start, end := testResult(t)
	p0, err := WriteSnapshot(dir, res, sig, start, end)
	if err != nil {
		t.Fatal(err)
	}
	// Newest snapshot is torn (simulated SIGKILL mid-write past rename);
	// an in-flight temp file is also lying around.
	p1, err := WriteSnapshot(dir, res, sig, start, end)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(p1)
	if err := os.WriteFile(p1, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-00000002.snap.tmp99"), raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Dir: dir})
	defer s.Close()
	got, err := s.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if got != p0 {
		t.Errorf("loaded %s, want last-good %s", got, p0)
	}
	if _, err := os.Stat(p1 + ".quarantined"); err != nil {
		t.Errorf("torn snapshot not quarantined: %v", err)
	}
	// All-bad directory: error, no snapshot.
	empty := t.TempDir()
	if err := os.WriteFile(filepath.Join(empty, "snap-00000000.snap"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Dir: empty})
	defer s2.Close()
	if _, err := s2.LoadLatest(); err == nil {
		t.Error("LoadLatest over junk succeeded")
	}
}

func TestDeadlinePropagatesToDisk(t *testing.T) {
	s, _ := newTestServer(t, Config{QueryTimeout: 20 * time.Millisecond, cacheCap: 1})
	sn := s.cur.Load()
	sn.SetReaderAt(&faults.SlowReaderAt{R: sn.readerAt(), Delay: 200 * time.Millisecond})
	rec := get(t, s, "/v1/cell?lat=30.5&lon=114.5")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("stalled disk = %d (Retry-After %q), want 503 + Retry-After",
			rec.Code, rec.Header().Get("Retry-After"))
	}
}
