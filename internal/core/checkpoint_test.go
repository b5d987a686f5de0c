package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/journal"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// panicProber panics mid-collection for a chosen set of blocks.
type panicProber struct {
	inner Prober
	boom  map[netsim.BlockID]bool
}

func (p *panicProber) CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]probe.Record) ([][]probe.Record, error) {
	if p.boom[b.ID] {
		panic(fmt.Sprintf("prober exploded on block %v", b.ID))
	}
	return p.inner.CollectInto(ctx, b, start, end, bufs)
}

func TestPipelinePanicBecomesBlockError(t *testing.T) {
	world := smallWorld(t, 16, 61)
	var victim netsim.BlockID
	found := false
	for _, wb := range world {
		if len(wb.Block.EverActive()) > 0 {
			victim, found = wb.ID, true
			break
		}
	}
	if !found {
		t.Fatal("no responsive blocks")
	}
	p := &Pipeline{
		Config: q1Config(),
		Engine: &panicProber{inner: engine4(), boom: map[netsim.BlockID]bool{victim: true}},
	}
	res, err := p.Run(context.Background(), world)
	if err != nil {
		t.Fatalf("one panicking block must not abort the run: %v", err)
	}
	if len(res.Report.BlockErrors) != 1 {
		t.Fatalf("expected 1 block error, got %v", res.Report.BlockErrors)
	}
	var pe *PanicError
	if !errors.As(res.Report.BlockErrors[0], &pe) {
		t.Fatalf("block error is not a PanicError: %v", res.Report.BlockErrors[0])
	}
	if len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "exploded") {
		t.Fatalf("panic identity lost: %q, stack %d bytes", pe.Error(), len(pe.Stack))
	}
	if res.Report.AnalyzedBlocks != len(world)-1 {
		t.Fatalf("analyzed %d, want %d", res.Report.AnalyzedBlocks, len(world)-1)
	}
}

// countingProber counts collection attempts per block and fails the first
// failN of them; transient selects the error flavor. When fail is non-nil
// only those blocks are affected.
type countingProber struct {
	inner     Prober
	failN     int
	transient bool
	fail      map[netsim.BlockID]bool

	mu       sync.Mutex
	attempts map[netsim.BlockID]int
}

func (p *countingProber) calls(id netsim.BlockID) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.attempts[id]
}

func (p *countingProber) CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]probe.Record) ([][]probe.Record, error) {
	p.mu.Lock()
	if p.attempts == nil {
		p.attempts = map[netsim.BlockID]int{}
	}
	p.attempts[b.ID]++
	n := p.attempts[b.ID]
	p.mu.Unlock()
	if n <= p.failN && (p.fail == nil || p.fail[b.ID]) {
		err := fmt.Errorf("collector down (attempt %d)", n)
		if p.transient {
			return bufs, transientError{err}
		}
		return bufs, err
	}
	return p.inner.CollectInto(ctx, b, start, end, bufs)
}

// transientError declares its failure retryable through the
// `Transient() bool` contract IsTransient documents.
type transientError struct{ error }

func (transientError) Transient() bool { return true }

// TestIsTransient: an error is retryable when some error in its chain
// says so through `Transient() bool`, and only then.
func TestIsTransient(t *testing.T) {
	cause := errors.New("collector down")
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{cause, false},
		{transientError{cause}, true},
		{fmt.Errorf("block 7: %w", transientError{cause}), true},
		{notTransient{cause}, false},
	} {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("IsTransient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// notTransient implements the contract and declines it.
type notTransient struct{ error }

func (notTransient) Transient() bool { return false }

func TestPipelineRetriesTransientErrors(t *testing.T) {
	world := smallWorld(t, 8, 67)
	cp := &countingProber{inner: engine4(), failN: 2, transient: true}
	p := &Pipeline{Config: q1Config(), Engine: cp, retryBackoff: 1}
	res, err := p.Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.BlockErrors) != 0 {
		t.Fatalf("transient failures within the retry budget must heal: %v", res.Report.BlockErrors)
	}
	if res.Report.RetriedBlocks == 0 {
		t.Fatal("RetriedBlocks not counted")
	}
	if res.Report.AnalyzedBlocks != len(world) {
		t.Fatalf("analyzed %d of %d", res.Report.AnalyzedBlocks, len(world))
	}
}

func TestPipelineDoesNotRetryPermanentErrors(t *testing.T) {
	world := smallWorld(t, 8, 67)
	var probed []*dataset.WorldBlock
	for _, wb := range world {
		if len(wb.Block.EverActive()) > 0 {
			probed = append(probed, wb)
		}
	}
	if len(probed) == 0 {
		t.Fatal("no responsive blocks")
	}
	// Keep one block healthy so the run itself succeeds.
	fail := map[netsim.BlockID]bool{}
	for _, wb := range probed[1:] {
		fail[wb.ID] = true
	}
	cp := &countingProber{inner: engine4(), failN: 1, transient: false, fail: fail}
	p := &Pipeline{Config: q1Config(), Engine: cp, retryBackoff: 1}
	res, err := p.Run(context.Background(), probed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.BlockErrors) != len(fail) {
		t.Fatalf("permanent errors must surface: %d errors for %d failing blocks", len(res.Report.BlockErrors), len(fail))
	}
	for _, wb := range probed[1:] {
		if n := cp.calls(wb.ID); n != 1 {
			t.Fatalf("block %v collected %d times; permanent errors must not be retried", wb.ID, n)
		}
	}
}

func TestPipelineRetriesDisabled(t *testing.T) {
	world := smallWorld(t, 8, 67)
	var probed []*dataset.WorldBlock
	for _, wb := range world {
		if len(wb.Block.EverActive()) > 0 {
			probed = append(probed, wb)
		}
	}
	fail := map[netsim.BlockID]bool{}
	for _, wb := range probed[1:] {
		fail[wb.ID] = true
	}
	cp := &countingProber{inner: engine4(), failN: 1, transient: true, fail: fail}
	p := &Pipeline{Config: q1Config(), Engine: cp, maxRetries: -1, retryBackoff: 1}
	res, err := p.Run(context.Background(), probed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.BlockErrors) != len(fail) {
		t.Fatalf("with retries disabled transient errors must surface: got %d errors", len(res.Report.BlockErrors))
	}
	for _, wb := range probed[1:] {
		if n := cp.calls(wb.ID); n != 1 {
			t.Fatalf("block %v collected %d times with retries disabled", wb.ID, n)
		}
	}
}

func TestPipelineCancellation(t *testing.T) {
	world := smallWorld(t, 16, 71)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &Pipeline{Config: q1Config(), Engine: engine4()}
	res, err := p.Run(ctx, world)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run must surface ctx.Err(): %v", err)
	}
	if res == nil {
		t.Fatal("canceled run must still return the partial result")
	}
	if len(res.Report.BlockErrors) != 0 {
		t.Fatalf("cancellation must not masquerade as block failures: %v", res.Report.BlockErrors)
	}
}

func TestCheckpointResumeSkipsJournaledBlocks(t *testing.T) {
	world := smallWorld(t, 12, 73)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := (&Pipeline{Config: q1Config(), Engine: engine4(), Checkpoint: cp}).Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if cp.Entries() == 0 {
		t.Fatal("nothing journaled")
	}

	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	second, err := (&Pipeline{Config: q1Config(), Engine: engine4(), Checkpoint: cp2}).Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}
	if second.Report.ResumedBlocks != first.Report.AnalyzedBlocks {
		t.Fatalf("resumed %d blocks, journal held %d", second.Report.ResumedBlocks, first.Report.AnalyzedBlocks)
	}
	f1, err := first.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := second.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatalf("journal round trip changed the result: %s vs %s", f1, f2)
	}
}

func TestCheckpointTornTailTruncated(t *testing.T) {
	world := smallWorld(t, 8, 79)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Pipeline{Config: q1Config(), Engine: engine4(), Checkpoint: cp}).Run(context.Background(), world); err != nil {
		t.Fatal(err)
	}
	entries := cp.Entries()
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a partial frame at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x99, 0x01, 0x00, 0x00, 'B', 0x13}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatalf("a torn tail must not poison the journal: %v", err)
	}
	defer cp2.Close()
	if cp2.Entries() != entries {
		t.Fatalf("recovered %d entries, want %d", cp2.Entries(), entries)
	}
	// The torn bytes must be gone so future appends start clean.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(data)) || len(data) == 0 {
		t.Fatal("journal unreadable after recovery")
	}
}

// TestCheckpointUndecodableFrameCutsTail pins the torn rule where a CRC
// check alone cannot see it: block frame k is replaced by a frame whose
// CRC matches but whose payload (the old one, one byte short) does not
// decode, and valid frames follow it. The tail is cut at k's start, not
// at the first CRC failure and not after the frames behind it, however
// many goroutines decode.
func TestCheckpointUndecodableFrameCutsTail(t *testing.T) {
	world := smallWorld(t, 10, 97)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Pipeline{Config: q1Config(), Engine: engine4(), Checkpoint: cp}).Run(context.Background(), world); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	sig, whole, torn, err := ReadCheckpoint(path)
	if err != nil || torn != 0 || len(whole) != len(world) {
		t.Fatalf("clean journal: %d entries, %d torn bytes, %v", len(whole), torn, err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := journal.Frames(data)
	const k = 4 // frame 0 is the header, so k-1 block frames precede it
	start := frames[k-1].End
	bad := journal.AppendFrame(nil, frames[k].Payload[:len(frames[k].Payload)-1])
	broken := append(append(append([]byte(nil), data[:start]...), bad...), data[frames[k].End:]...)
	if err := os.WriteFile(path, broken, 0o644); err != nil {
		t.Fatal(err)
	}

	requireEntries := func(label string, got []JournalEntry) {
		t.Helper()
		if len(got) != k-1 {
			t.Fatalf("%s: %d entries, want the %d before the undecodable frame", label, len(got), k-1)
		}
		for i, e := range got {
			w := whole[i]
			if e.Index != w.Index || e.Outcome.ID != w.Outcome.ID || !analysesSame(e.Outcome.Analysis, w.Outcome.Analysis) {
				t.Fatalf("%s: entry %d is block %d (%s), want block %d (%s)", label, i, e.Index, e.Outcome.ID, w.Index, w.Outcome.ID)
			}
		}
	}
	gotSig, entries, torn, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSig, sig) {
		t.Fatal("ReadCheckpoint lost the run signature")
	}
	requireEntries("ReadCheckpoint", entries)
	if want := len(broken) - start; torn != want {
		t.Fatalf("ReadCheckpoint: %d torn bytes, want %d", torn, want)
	}

	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatalf("an undecodable frame must be cut, not fail the open: %v", err)
	}
	defer cp2.Close()
	if cp2.Entries() != k-1 {
		t.Fatalf("OpenCheckpoint: %d entries, want %d", cp2.Entries(), k-1)
	}
	for i, e := range whole {
		if _, ok := cp2.Lookup(e.Index, e.Outcome.ID); ok != (i < k-1) {
			t.Fatalf("OpenCheckpoint: block %d restored = %v, want %v", e.Index, ok, i < k-1)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(start) {
		t.Fatalf("OpenCheckpoint left %d bytes, want the %d before the undecodable frame", fi.Size(), start)
	}
}

func TestCheckpointRejectsForeignRun(t *testing.T) {
	world := smallWorld(t, 8, 83)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Pipeline{Config: q1Config(), Engine: engine4(), Checkpoint: cp}).Run(context.Background(), world); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	other := q1Config()
	other.BaselineEnd = q1Config().BaselineEnd + netsim.SecondsPerDay
	if _, err := (&Pipeline{Config: other, Engine: engine4(), Checkpoint: cp2}).Run(context.Background(), world); err == nil {
		t.Fatal("a checkpoint from a different config must be refused")
	}
}

// TestReplayProberCorruptionSurfacesInRunReport closes the loop from disk
// corruption to the pipeline's degradation report: a store with one
// bit-flipped log must (a) fail Verify for exactly that block and (b)
// yield exactly one BlockError wrapping ErrCorruptLog when the archive is
// replayed through the pipeline.
func TestReplayProberCorruptionSurfacesInRunReport(t *testing.T) {
	world := smallWorld(t, 10, 89)
	var archived []*dataset.WorldBlock
	for _, wb := range world {
		if len(wb.Block.EverActive()) > 0 {
			archived = append(archived, wb)
		}
	}
	if len(archived) < 2 {
		t.Fatal("too few responsive blocks")
	}
	dir := t.TempDir()
	spec := dataset.Spec{Name: "corrupt-replay", Start: q1Start, Weeks: 12, Sites: []string{"e", "j", "w", "c"}}
	store, err := dataset.CreateStore(dir, spec, engine4(), archived)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the middle of the victim's first observer log.
	victim := archived[0].ID
	logPath := victimLog(t, dir, victim)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := store.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("fsck missed a bit flip")
	}
	if len(rep.Faults) == 0 {
		t.Fatal("fsck faulted no log")
	}
	for _, f := range rep.Faults {
		if f.ID != victim {
			t.Fatalf("fsck faulted block %v, want only %v", f.ID, victim)
		}
	}

	replay, err := store.Replay()
	if err != nil {
		t.Fatal(err)
	}
	cfg := q1Config()
	cfg.AnalysisEnd = spec.End()
	cfg.BaselineEnd = q1Start + 28*netsim.SecondsPerDay
	res, err := (&Pipeline{Config: cfg, Engine: replay, maxRetries: -1}).Run(context.Background(), archived)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.BlockErrors) != 1 {
		t.Fatalf("expected 1 block error from the corrupt log, got %v", res.Report.BlockErrors)
	}
	be := res.Report.BlockErrors[0]
	if be.ID != victim || !errors.Is(be, dataset.ErrCorruptLog) {
		t.Fatalf("corruption not attributed: %v", be)
	}
	if res.Report.AnalyzedBlocks != len(archived)-1 {
		t.Fatalf("healthy blocks lost: analyzed %d of %d", res.Report.AnalyzedBlocks, len(archived))
	}
}

// victimLog finds the first observer log file for a block in a store dir.
func victimLog(t *testing.T, dir string, id netsim.BlockID) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("blk-%06x.obs0.log", uint32(id))))
	if err != nil || len(matches) != 1 {
		t.Fatalf("log for block %v not found: %v %v", id, matches, err)
	}
	return matches[0]
}
