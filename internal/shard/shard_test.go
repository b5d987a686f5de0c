package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/health"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

var (
	testStart = netsim.Date(2020, time.January, 1)
	testEnd   = netsim.Date(2020, time.March, 25)
)

func testConfig() core.Config {
	cfg := core.DefaultConfig(testStart, testEnd)
	cfg.BaselineStart = testStart
	cfg.BaselineEnd = netsim.Date(2020, time.January, 29)
	return cfg
}

func testWorld(t *testing.T, blocks int, seed uint64) []*dataset.WorldBlock {
	t.Helper()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   blocks,
		Seed:     seed,
		Calendar: events.Year2020(),
		Start:    testStart,
		End:      testEnd,
	})
	if err != nil {
		t.Fatal(err)
	}
	return world
}

func TestPartitionTiles(t *testing.T) {
	for _, tc := range []struct{ blocks, shards int }{
		{1, 1}, {7, 3}, {10, 10}, {100, 7}, {5200, 16},
	} {
		ranges := partition(tc.blocks, tc.shards)
		if len(ranges) != tc.shards {
			t.Fatalf("partition(%d,%d): %d ranges", tc.blocks, tc.shards, len(ranges))
		}
		next := 0
		for _, r := range ranges {
			if r.Start != next {
				t.Fatalf("partition(%d,%d): shard %d starts at %d, want %d", tc.blocks, tc.shards, r.Index, r.Start, next)
			}
			if size := r.End - r.Start; size < tc.blocks/tc.shards || size > tc.blocks/tc.shards+1 {
				t.Fatalf("partition(%d,%d): shard %d has unbalanced size %d", tc.blocks, tc.shards, r.Index, size)
			}
			next = r.End
		}
		if next != tc.blocks {
			t.Fatalf("partition(%d,%d): covers %d blocks", tc.blocks, tc.shards, next)
		}
	}
}

func TestLedgerCreateValidates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	sig := []byte{1, 2, 3}
	if _, err := Create(dir, sig, 10, 20, Options{}); err == nil {
		t.Fatal("more shards than blocks must be rejected")
	}
	l, err := Create(dir, sig, 10, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Manifest(); got.Blocks != 10 || len(got.Shards) != 3 {
		t.Fatalf("manifest %+v", got)
	}
	// Reopening with the same signature converges on the same ledger;
	// a different signature or shard count is a different run.
	if _, err := Create(dir, sig, 10, 3, Options{}); err != nil {
		t.Fatalf("idempotent create: %v", err)
	}
	if _, err := Create(dir, sig, 10, 5, Options{}); err == nil {
		t.Fatal("shard-count mismatch must be rejected")
	}
	if _, err := Open(dir, []byte{9, 9}, Options{}); err == nil {
		t.Fatal("signature mismatch must be rejected")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "absent"), sig, Options{}); err == nil {
		t.Fatal("opening a non-ledger must fail")
	}
}

// TestLeaseFencing walks the lease state machine on a fake clock: claim,
// renewal, expiry, takeover under a higher token, and the fenced holder's
// journal appends being rejected with core.ErrFenced.
func TestLeaseFencing(t *testing.T) {
	clk := health.NewFake()
	dir := filepath.Join(t.TempDir(), "ledger")
	opt := Options{TTL: time.Minute, Poll: time.Second, Clock: clk}
	l, err := Create(dir, []byte{0xaa}, 4, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := l.man.Shards[0]

	c1, err := l.Acquire(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	if c1.Token != 1 || c1.Shard.Index != 0 {
		t.Fatalf("first claim got shard %d token %d", c1.Shard.Index, c1.Token)
	}
	// The lease is live: a second worker cannot claim it.
	if c, err := l.tryClaim(r, "w2"); err != nil || c != nil {
		t.Fatalf("claim of a live lease: claim=%v err=%v", c, err)
	}
	if err := c1.Check(); err != nil {
		t.Fatalf("unfenced claim failed its check: %v", err)
	}
	// Renewal pushes expiry out past what the original TTL allowed.
	clk.Advance(45 * time.Second)
	if err := c1.Renew(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(45 * time.Second) // 90s after claim, but only 45s after renewal
	if c, _ := l.tryClaim(r, "w2"); c != nil {
		t.Fatal("renewed lease was stolen")
	}
	// Expiry: no renewal for a full TTL, and the shard is claimable under
	// the next token.
	clk.Advance(opt.TTL)
	c2, err := l.tryClaim(r, "w2")
	if err != nil || c2 == nil {
		t.Fatalf("expired lease not claimable: claim=%v err=%v", c2, err)
	}
	if c2.Token != 2 {
		t.Fatalf("takeover token %d, want 2", c2.Token)
	}
	// The old holder is fenced: checks, renewals, and journal appends all
	// fail with core.ErrFenced; the new holder is unaffected.
	if err := c1.Check(); !errors.Is(err, core.ErrFenced) {
		t.Fatalf("superseded claim's check: %v", err)
	}
	if err := c1.Renew(); !errors.Is(err, core.ErrFenced) {
		t.Fatalf("superseded claim's renewal: %v", err)
	}
	cp, err := core.OpenCheckpoint(c1.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	cp.Fence = c1.Check
	if err := cp.Append(0, core.BlockOutcome{ID: 42}); !errors.Is(err, core.ErrFenced) {
		t.Fatalf("fenced append: %v", err)
	}
	if err := c2.Renew(); err != nil {
		t.Fatalf("live claim's renewal: %v", err)
	}
	// Done marker retires the shard from acquisition entirely.
	if err := c2.Done(DoneMarker{Analyzed: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Acquire(context.Background(), "w3"); !errors.Is(err, ErrAllDone) {
		t.Fatalf("acquire on a finished ledger: %v", err)
	}
}

func TestDeadLetterStore(t *testing.T) {
	s, err := OpenDeadLetters(filepath.Join(t.TempDir(), "dl"))
	if err != nil {
		t.Fatal(err)
	}
	id := netsim.BlockID(0x123456)
	if _, ok := s.Lookup(3, id); ok {
		t.Fatal("lookup hit on an empty store")
	}
	if err := s.Record(3, id, errors.New("panic: poison")); err != nil {
		t.Fatal(err)
	}
	reason, ok := s.Lookup(3, id)
	if !ok || reason != "panic: poison" {
		t.Fatalf("lookup after record: %q %v", reason, ok)
	}
	// First write wins: a second give-up (even with a different message)
	// keeps the original entry.
	if err := s.Record(3, id, errors.New("different message")); err != nil {
		t.Fatal(err)
	}
	if reason, _ := s.Lookup(3, id); reason != "panic: poison" {
		t.Fatalf("record overwrote the first entry: %q", reason)
	}
	// A scoped view shifts local indices by the shard base and stamps the
	// recorder.
	scoped := s.Scoped(10, "w2", 4)
	if err := scoped.Record(1, 99, errors.New("deadline exceeded")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(11, 99); !ok {
		t.Fatal("scoped record not visible at its global index")
	}
	if _, ok := scoped.Lookup(1, 99); !ok {
		t.Fatal("scoped lookup missed its own record")
	}
	entries, faults := s.Entries()
	if len(faults) != 0 {
		t.Fatalf("faults on a healthy store: %v", faults)
	}
	if len(entries) != 2 || entries[0].Index != 3 || entries[1].Index != 11 {
		t.Fatalf("entries %+v", entries)
	}
	if entries[0].Kind != "other" || entries[1].Kind != "other" {
		t.Fatalf("kinds %q %q", entries[0].Kind, entries[1].Kind)
	}
	if entries[1].Worker != "w2" || entries[1].Token != 4 {
		t.Fatalf("scoped entry lost its recorder: %+v", entries[1])
	}
}

// TestShardedRunMatchesSingleProcess is the package's core contract: N
// workers draining a sharded ledger — with a block quarantined up front —
// merge to a result byte-identical (by fingerprint) to one process running
// the whole world with the same quarantine.
func TestShardedRunMatchesSingleProcess(t *testing.T) {
	world := testWorld(t, 36, 77)
	cfg := testConfig()
	eng := &probe.Engine{Observers: probe.StandardObservers(2), QuarterSeed: 7}
	sig := core.RunSignature(cfg, world)
	l, err := Create(filepath.Join(t.TempDir(), "ledger"), sig, len(world), 3,
		Options{TTL: 10 * time.Second, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Quarantine one responsive block before anyone runs: both the
	// single-process reference and every worker must skip it identically.
	poisoned := -1
	for i, wb := range world {
		if len(wb.Block.EverActive()) > 0 {
			poisoned = i
			break
		}
	}
	if poisoned < 0 {
		t.Fatal("world has no responsive blocks")
	}
	if err := l.DeadLetters().Record(poisoned, world[poisoned].ID, errors.New("panic: injected poison")); err != nil {
		t.Fatal(err)
	}

	single, err := (&core.Pipeline{Config: cfg, Engine: eng, DeadLetter: l.DeadLetters()}).
		Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	reports := make([]*Report, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{ID: fmt.Sprintf("w%d", i), Ledger: l, Config: cfg, Engine: eng, World: world}
			reports[i], errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	done := 0
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		done += len(reports[i].CompletedShards)
	}
	if done != 3 {
		t.Fatalf("workers completed %d shards, want 3", done)
	}

	merged, audit, err := l.Merge(cfg, world)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Clean() {
		t.Fatalf("audit failed:\n%s", audit)
	}
	if audit.DuplicateFrames != 0 {
		t.Fatalf("%d duplicate frames in a fault-free run", audit.DuplicateFrames)
	}
	if audit.DeadLetters != 1 {
		t.Fatalf("audit saw %d dead letters, want 1", audit.DeadLetters)
	}
	if audit.DoneShards != 3 || len(audit.IncompleteShards) != 0 {
		t.Fatalf("audit shard completion: %+v", audit)
	}
	got, err := merged.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("merged fingerprint %s != single-process %s\naudit: %s", got[:16], want[:16], audit)
	}
	if len(merged.Report.DeadLettered) != 1 || merged.Report.DeadLettered[0].Index != poisoned {
		t.Fatalf("merged dead-letter report %+v", merged.Report.DeadLettered)
	}
	if !merged.Report.Degraded() {
		t.Fatal("a run with dead letters must report degraded")
	}
}

// TestLedgerLitterSwept checks that a sharded run leaves no dead files
// behind: a starting worker removes claim temporaries older than the
// lease TTL (and keeps a fresh one, which may be a peer's claim in
// flight), and a merge drops every lease of a done shard, superseded ones
// included, without unfencing the superseded holder. A second merge of
// the swept ledger gives the same result.
func TestLedgerLitterSwept(t *testing.T) {
	world := testWorld(t, 12, 31)
	cfg := testConfig()
	eng := &probe.Engine{Observers: probe.StandardObservers(2), QuarterSeed: 7}
	clk := health.NewFake()
	dir := filepath.Join(t.TempDir(), "ledger")
	opt := Options{TTL: time.Minute, Poll: time.Second, Clock: clk}
	l, err := Create(dir, core.RunSignature(cfg, world), len(world), 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	aged, fresh := filepath.Join(dir, ".claim-aged"), filepath.Join(dir, ".claim-fresh")
	agedTmp := filepath.Join(dir, "manifest.json.tmp-aged")
	old := time.Now().Add(-2 * opt.TTL)
	for _, p := range []string{aged, fresh, agedTmp} {
		if err := os.WriteFile(p, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{aged, agedTmp} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	// w1 claims shard 0 and dies; w2 takes it over under token 2 once the
	// lease expires, and finishes both shards.
	stale, err := l.Acquire(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * opt.TTL)
	w := &Worker{ID: "w2", Ledger: l, Config: cfg, Engine: eng, World: world}
	rep, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CompletedShards) != 2 {
		t.Fatalf("w2 completed shards %v, want both", rep.CompletedShards)
	}
	for p, want := range map[string]bool{aged: false, agedTmp: false, fresh: true} {
		if _, err := os.Stat(p); (err == nil) != want {
			t.Errorf("%s present=%v after a worker start, want %v", filepath.Base(p), err == nil, want)
		}
	}
	fps := make([]string, 2)
	for i := range fps {
		merged, audit, err := l.Merge(cfg, world)
		if err != nil {
			t.Fatal(err)
		}
		if !audit.Clean() {
			t.Fatalf("merge %d: audit failed:\n%s", i+1, audit)
		}
		if fps[i], err = merged.Fingerprint(); err != nil {
			t.Fatal(err)
		}
		if leases, _ := filepath.Glob(filepath.Join(dir, "*.lease")); len(leases) != 0 {
			t.Fatalf("merge %d left leases %v", i+1, leases)
		}
	}
	if fps[0] != fps[1] {
		t.Fatalf("second merge fingerprint %s != first %s", fps[1][:16], fps[0][:16])
	}
	// With its successor's lease gone, the done marker still fences w1,
	// and its renewal does not bring a lease back.
	if err := stale.Check(); !errors.Is(err, core.ErrFenced) {
		t.Fatalf("superseded claim's check after the merge: %v", err)
	}
	if err := stale.Renew(); !errors.Is(err, core.ErrFenced) {
		t.Fatalf("superseded claim's renewal after the merge: %v", err)
	}
	if leases, _ := filepath.Glob(filepath.Join(dir, "*.lease")); len(leases) != 0 {
		t.Fatalf("a fenced renewal recreated leases %v", leases)
	}
}

// Manifest returns a copy of the ledger's manifest.
func (l *Ledger) Manifest() Manifest {
	man := l.man
	man.Shards = append([]Range(nil), l.man.Shards...)
	return man
}
