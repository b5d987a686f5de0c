package serve

// The chaos test: 10× overload from the load harness while snapshots
// swap, fail verification, and the disk stalls underneath. The
// acceptance contract:
//
//   - only 200s and 503s leave the server, every 503 with Retry-After;
//   - no torn, bit-flipped, or foreign-signature snapshot is ever served
//     (every X-Snapshot header names a known-good snapshot);
//   - a crashed writer (SIGKILL mid-swap: torn .snap + stray .tmp) is
//     quarantined and the server resumes on last-good;
//   - cheap cached reads keep a bounded p99 through all of it.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/faults"
)

func TestChaosOverloadWithFailingSwaps(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test in -short mode")
	}
	dir := t.TempDir()
	path, res, sig, start, end := writeTestSnapshot(t, dir)
	const maxInflight = 8
	s := New(Config{
		Dir:         dir,
		MaxInflight: maxInflight,
		// Tight freshness so the cache alone cannot absorb the run; the
		// admission path stays hot.
		FreshTTL:     50 * time.Millisecond,
		StaleTTL:     2 * time.Second,
		QueryTimeout: time.Second,
	})
	defer s.Close()
	if err := s.Install(path); err != nil {
		t.Fatalf("Install: %v", err)
	}

	// goodIDs collects the only snapshot identities that may ever appear
	// in an X-Snapshot header. Each good snapshot also gets a mildly slow
	// disk (1ms per column read): the fixture is tiny enough that at
	// native speed 10× the workers never holds the admission ceiling —
	// a realistic disk makes the overload real.
	var mu sync.Mutex
	goodIDs := map[string]bool{}
	noteGood := func() {
		sn := s.cur.Load()
		if sn == nil {
			return
		}
		sn.SetReaderAt(&faults.SlowReaderAt{R: sn.readerAt(), Delay: time.Millisecond})
		mu.Lock()
		goodIDs[sn.ID()] = true
		mu.Unlock()
	}
	noteGood()

	// The swapper loops the full failure menu under live traffic.
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			// 1: good snapshot, must swap in.
			p, err := WriteSnapshot(dir, res, sig, start, end)
			if err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if err := s.Install(p); err != nil {
				t.Errorf("good swap failed: %v", err)
				return
			}
			noteGood()
			// 2: bit-flipped snapshot, must quarantine.
			p, _ = WriteSnapshot(dir, res, sig, start, end)
			raw, _ := os.ReadFile(p)
			raw[(round*37)%len(raw)] ^= 0x10
			os.WriteFile(p, raw, 0o644)
			if err := s.Install(p); err == nil {
				t.Error("bit-flipped snapshot swapped in")
				return
			}
			// 3: SIGKILL mid-swap — the writer died after renaming a
			// torn file and left a temp dropping; recovery is LoadLatest
			// landing on last-good.
			p, _ = WriteSnapshot(dir, res, sig, start, end)
			raw, _ = os.ReadFile(p)
			os.WriteFile(p, raw[:len(raw)/4], 0o644)
			os.WriteFile(p+".tmp-crash", raw[:64], 0o644)
			if _, err := s.LoadLatest(); err != nil {
				t.Errorf("LoadLatest after crash: %v", err)
				return
			}
			noteGood()
			// 4: foreign-signature snapshot, must quarantine.
			p, _ = WriteSnapshot(dir, res, make([]byte, 32), start, end)
			if err := s.Install(p); err == nil {
				t.Error("foreign snapshot swapped in")
				return
			}
		}
	}()

	// 10× overload: ten workers per admission slot.
	rep := RunLoad(s.Handler(), s.cur.Load().CellKeys(), LoadOptions{
		Workers:  10 * maxInflight,
		Requests: 50,
		Seed:     7,
	})
	close(stop)
	swapper.Wait()

	if rep.Other != 0 {
		t.Errorf("%d responses were neither 200 nor 503", rep.Other)
	}
	if rep.ShedNoRetryAfter != 0 {
		t.Errorf("%d sheds lacked Retry-After", rep.ShedNoRetryAfter)
	}
	if rep.OK == 0 {
		t.Error("nothing served under overload")
	}
	if rep.Shed == 0 {
		t.Error("10x overload shed nothing — admission is not bounding")
	}
	mu.Lock()
	for id := range rep.Snapshots {
		if !goodIDs[id] {
			t.Errorf("served snapshot %s is not in the known-good set %v", id, goodIDs)
		}
	}
	mu.Unlock()
	// Cheap reads stay bounded: generous CI headroom, but a wedged
	// admission slot or a swap-blocked read would blow far past it.
	if p99 := rep.Classes["cell"].P99ms; p99 > 500 {
		t.Errorf("cell p99 = %.1fms under overload, want < 500ms", p99)
	}
	st := s.StatsNow()
	if st.Quarantined == 0 {
		t.Error("no snapshot was quarantined — the failure menu did not run")
	}
	// Background revalidations may still hold slots; they must drain. A
	// slot that never comes back is a leak.
	drained := time.Now().Add(5 * time.Second)
	for s.StatsNow().Admission.Inflight != 0 {
		if time.Now().After(drained) {
			t.Fatalf("%d admission slots leaked", s.StatsNow().Admission.Inflight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("chaos: %d ok (%d stale), %d shed, swaps=%d quarantined=%d, cell p99=%.2fms topk p99=%.2fms",
		rep.OK, rep.Stale, rep.Shed, st.Swaps, st.Quarantined,
		rep.Classes["cell"].P99ms, rep.Classes["topk"].P99ms)
}

// TestChaosSlowDisk stalls the daily-column reads and checks that
// requests degrade into bounded 503s instead of wedging, and that the
// server recovers once the disk does.
func TestChaosSlowDisk(t *testing.T) {
	dir := t.TempDir()
	path, _, _, _, _ := writeTestSnapshot(t, dir)
	s := New(Config{Dir: dir, QueryTimeout: 30 * time.Millisecond, cacheCap: 1, FreshTTL: time.Nanosecond})
	defer s.Close()
	if err := s.Install(path); err != nil {
		t.Fatal(err)
	}
	sn := s.cur.Load()
	orig := sn.readerAt()
	sn.SetReaderAt(&faults.SlowReaderAt{R: orig, Delay: 300 * time.Millisecond})
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		req := httptest.NewRequest(http.MethodGet, "/v1/cell?lat=30.5&lon=114.5", nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("stalled read %d: code %d Retry-After %q", i, rec.Code, rec.Header().Get("Retry-After"))
		}
		// Bounded: the 30ms deadline, not the 300ms stall, set the
		// latency (generous slack for CI scheduling).
		if el := time.Since(t0); el > 200*time.Millisecond {
			t.Errorf("stalled read %d took %v — deadline did not bound it", i, el)
		}
	}
	// Disk recovers: service resumes without a restart.
	sn.SetReaderAt(orig)
	req := httptest.NewRequest(http.MethodGet, "/v1/cell?lat=30.5&lon=114.5", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("after disk recovery: %d", rec.Code)
	}
	if n := s.StatsNow().Admission.Inflight; n != 0 {
		t.Errorf("%d admission slots leaked across stalls", n)
	}
}
