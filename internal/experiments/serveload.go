package experiments

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/serve"
)

// ServeLoadResult records the result-serving-plane acceptance
// experiment: one world is analyzed, published as a columnar snapshot,
// and queried through the degradation-aware server at 1× and 10× its
// admission ceiling over a deliberately slow disk, with a corrupt
// publish injected mid-experiment. The serving contract under overload:
// every response is a 200 or a 503-with-Retry-After, cheap point reads
// keep a bounded p99, load is shed rather than queued, and a corrupt
// snapshot is quarantined while the server keeps answering from
// last-good.
type ServeLoadResult struct {
	// Blocks is the analyzed world size; Cells the published gridcell
	// count; Ceiling the admission bound the overload run is measured
	// against.
	Blocks, Cells, Ceiling int
	// Nominal and Overload are the load-harness reports at 1× and 10×
	// the ceiling.
	Nominal, Overload *serve.LoadReport
	// Quarantined counts snapshots the corrupt-publish injection sent to
	// quarantine; ServedLastGood reports whether the server kept
	// answering from the pre-corruption snapshot throughout.
	Quarantined    uint64
	ServedLastGood bool
}

// String renders the check as text.
func (r *ServeLoadResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serving plane over %d blocks (%d gridcells), admission ceiling %d:\n",
		r.Blocks, r.Cells, r.Ceiling)
	line := func(name string, rep *serve.LoadReport) {
		cell := rep.Classes["cell"]
		topk := rep.Classes["topk"]
		fmt.Fprintf(&b, "  %-9s %5d ok (%d stale), %5d shed, cell p50/p99 %.2f/%.2fms, topk p99 %.2fms\n",
			name, rep.OK, rep.Stale, rep.Shed, cell.P50ms, cell.P99ms, topk.P99ms)
	}
	line("nominal", r.Nominal)
	line("overload", r.Overload)
	verdict := func(ok bool) string {
		if ok {
			return "OK"
		}
		return "VIOLATED"
	}
	fmt.Fprintf(&b, "  only 200s and Retry-After 503s left the server: %s\n",
		verdict(r.Nominal.Other+r.Overload.Other == 0 &&
			r.Nominal.ShedNoRetryAfter+r.Overload.ShedNoRetryAfter == 0))
	fmt.Fprintf(&b, "  10x overload shed load instead of queueing it: %s\n", verdict(r.Overload.Shed > 0))
	fmt.Fprintf(&b, "  corrupt publish quarantined (%d), served last-good: %s\n",
		r.Quarantined, verdict(r.Quarantined > 0 && r.ServedLastGood))
	return b.String()
}

// ServeLoad is the serving-plane acceptance experiment. A non-nil error
// means the overload contract is broken.
func ServeLoad(opts Options) (*ServeLoadResult, error) {
	start, end := q1Window()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   opts.blocks(64),
		Seed:     opts.seed() + 47,
		Calendar: events.Year2020(),
		Start:    start,
		End:      end,
	})
	if err != nil {
		return nil, err
	}
	cc := core.DefaultConfig(start, end)
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}
	res, err := (&core.Pipeline{Config: cc, Engine: eng}).Run(context.Background(), world)
	if err != nil {
		return nil, fmt.Errorf("analysis run: %w", err)
	}

	dir, err := os.MkdirTemp("", "serveload-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sig := core.RunSignature(cc, world)
	path, err := serve.WriteSnapshot(dir, res, sig, start, end)
	if err != nil {
		return nil, fmt.Errorf("publishing snapshot: %w", err)
	}

	const ceiling = 8
	s := serve.New(serve.Config{
		Dir:         dir,
		MaxInflight: ceiling,
		// Tight freshness so the cache cannot absorb the whole run and
		// the admission path stays hot; a wide stale window so the
		// degradation ladder (fresh → stale → shed) is visible.
		FreshTTL:     20 * time.Millisecond,
		StaleTTL:     5 * time.Second,
		QueryTimeout: time.Second,
	})
	defer s.Close()
	if err := s.Install(path); err != nil {
		return nil, fmt.Errorf("installing snapshot: %w", err)
	}
	sn := s.CurrentSnapshot()
	lastGood := sn.ID()
	// A realistic disk: at native speed the in-memory fixture renders so
	// fast that no worker count can hold the admission ceiling.
	sn.SetReaderAt(&faults.SlowReaderAt{R: sn.ReaderAt(), Delay: time.Millisecond})
	cells := sn.CellKeys()

	nominal := serve.RunLoad(s.Handler(), cells, serve.LoadOptions{
		Workers: ceiling, Requests: 100, Seed: int64(opts.seed()),
	})

	// A writer publishes a bit-flipped snapshot mid-experiment; the
	// reload must quarantine it and keep serving last-good.
	bad, err := serve.WriteSnapshot(dir, res, sig, start, end)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(bad)
	if err != nil {
		return nil, err
	}
	raw[len(raw)/3] ^= 0x20
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		return nil, err
	}
	if _, err := s.LoadLatest(); err != nil {
		return nil, fmt.Errorf("reload over corrupt publish: %w", err)
	}

	overload := serve.RunLoad(s.Handler(), cells, serve.LoadOptions{
		Workers: 10 * ceiling, Requests: 100, Seed: int64(opts.seed()) + 1,
	})

	st := s.StatsNow()
	r := &ServeLoadResult{
		Blocks:         len(world),
		Cells:          len(cells),
		Ceiling:        ceiling,
		Nominal:        nominal,
		Overload:       overload,
		Quarantined:    st.Quarantined,
		ServedLastGood: st.SnapshotID == lastGood,
	}
	if n := nominal.Other + overload.Other; n != 0 {
		return r, fmt.Errorf("serveload: %d responses were neither 200 nor 503", n)
	}
	if n := nominal.ShedNoRetryAfter + overload.ShedNoRetryAfter; n != 0 {
		return r, fmt.Errorf("serveload: %d sheds lacked Retry-After", n)
	}
	if overload.OK == 0 {
		return r, fmt.Errorf("serveload: nothing served under overload")
	}
	if overload.Shed == 0 {
		return r, fmt.Errorf("serveload: 10x overload shed nothing — admission is not bounding")
	}
	if st.Quarantined == 0 || !r.ServedLastGood {
		return r, fmt.Errorf("serveload: corrupt publish was not contained (quarantined=%d, served=%s, want %s)",
			st.Quarantined, st.SnapshotID, lastGood)
	}
	for id := range nominal.Snapshots {
		if id != lastGood {
			return r, fmt.Errorf("serveload: served unknown snapshot %s", id)
		}
	}
	for id := range overload.Snapshots {
		if id != lastGood {
			return r, fmt.Errorf("serveload: served unknown snapshot %s", id)
		}
	}
	return r, nil
}
