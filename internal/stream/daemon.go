package stream

// The daemon: durable ingestion in front of the deterministic detector.
//
// Correctness argument, in one place. The WAL protocol is
//
//	ingest:  round → rounds.wal (single write) → admission queue
//	process: round → detector → events → events.wal → OnEvent delivery
//	         (a refresh's checkpoint → events.wal, behind its events)
//
// so at any kill point rounds.wal holds every admitted round and
// events.wal holds a prefix of the events the detector derives from them,
// with the emission state of some refresh after that refresh's events.
// Recovery — whether from SIGKILL (Open) or from a wedged analysis loop
// (the watchdog) — is one code path (recover): a fresh detector absorbs
// the rounds the latest checkpoint covers without refreshing, restores
// the checkpoint, and replays the rounds after it, refreshes included.
// Determinism makes the events that tail regenerates equal the ones
// journaled after the checkpoint (verified frame by frame; a mismatch
// fails the open rather than corrupting the log), and any events the
// crash cut off are re-derived, appended, and delivered. Event sequence
// numbers are therefore contiguous and each event is journaled exactly
// once.
//
// The watchdog uses generation fencing: every analysis loop runs under a
// generation number, and every commit (journal append, queue pop,
// delivery) happens under the daemon mutex only if the loop's generation
// is still current. A loop declared wedged is fenced out — whatever it
// eventually computes is discarded — and a new loop resumes from the
// rebuilt detector, which already covers the round the old loop was
// chewing on.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/journal"
)

// ErrDiskPressure reports that an admission was shed because the
// daemon's disk budget was exhausted even after compaction. The WALs
// are intact and the daemon keeps running; the caller decides whether
// to retry, alert, or stop.
var ErrDiskPressure = errors.New("stream: disk budget exhausted; round shed")

// isNoSpace reports whether err is an out-of-space write failure (real
// or injected by faults.FS).
func isNoSpace(err error) bool { return errors.Is(err, syscall.ENOSPC) }

// Daemon is a crash-safe streaming analysis service over one world. All
// methods are safe for concurrent use.
type Daemon struct {
	cfg      Config
	rc       core.Resolved // cfg.Core, resolved once by Open
	world    []*dataset.WorldBlock
	obsCount int
	sig      []byte
	dir      string

	mu        sync.Mutex
	det       *detector
	detStats  detSnapshot
	rounds    *journal.Log
	events    *journal.Log
	queue     []*Round
	nextSeq   int64 // next round seq Ingest accepts
	journaled []Event
	gen       int64
	busy      bool
	busySince time.Time
	restarts  int64
	maxDepth  int
	closed    bool
	aborted   bool
	err       error
	progress  chan struct{} // closed and replaced on every state change

	// Storage governance.
	sheds          int64  // rounds refused under disk pressure
	lastStorageErr string // most recent storage-plane failure
	legacyTail     bool   // the round journal's tail is signed as before packed rounds
	roundBuf       []byte // Ingest's round frame payload, reused
	eventFrames    int64  // frames appended to the event journal since open
	compactedAt    int64  // eventFrames at the last events compaction (-1: never)
	lastGov        journal.Usage

	// ckpt is the latest refresh checkpoint ('C' payload, tag included)
	// the event journal holds that recovery may restore, nil when there
	// is none; ckptAt is its NextEvent, the events journaled before it.
	// superseded is the bytes of the journal's other checkpoints, which
	// event compaction drops.
	ckpt       []byte
	ckptAt     int64
	superseded int64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// lanes is the detector's refresh lane count, fixed at Open
	// (GOMAXPROCS) so the watchdog's rebuild runs as the replay in Open did.
	lanes int

	// hookProcess, when set by in-package tests, runs inside the analysis
	// loop before each round is processed — the seam chaos tests use to
	// wedge the loop and exercise the watchdog.
	hookProcess func(*Round)
	// hookBlock, set by in-package tests through open, is every detector's
	// hookBlock, the replays' included.
	hookBlock func(b int)
}

// Open opens (or creates) a streaming daemon over dir. An existing WAL is
// recovered: the detector state is rebuilt from the latest refresh
// checkpoint and the rounds after it, the events journaled after the
// checkpoint are verified against the regenerated sequence, and events a
// crash cut off between processing and journaling are appended. Open does
// not start the analysis loop; call Start.
//
// obsCount is the number of observer streams every round carries per
// block (the probing engine's observer count).
func Open(dir string, world []*dataset.WorldBlock, obsCount int, cfg Config) (*Daemon, error) {
	return open(dir, world, obsCount, cfg, runtime.GOMAXPROCS(0), nil)
}

// open is Open with the detector's lane count and per-block test hook.
func open(dir string, world []*dataset.WorldBlock, obsCount int, cfg Config, lanes int, hookBlock func(b int)) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rc, err := cfg.Core.Resolve()
	if err != nil {
		return nil, err
	}
	if len(world) == 0 {
		return nil, fmt.Errorf("stream: empty world")
	}
	if obsCount <= 0 {
		return nil, fmt.Errorf("stream: observer count %d", obsCount)
	}
	if err := cfg.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stream: creating %s: %w", dir, err)
	}
	d := &Daemon{
		cfg:         cfg,
		rc:          rc,
		world:       world,
		obsCount:    obsCount,
		sig:         runSignature(cfg, world),
		dir:         dir,
		progress:    make(chan struct{}),
		compactedAt: -1,
		lanes:       lanes,
		hookBlock:   hookBlock,
	}
	d.ctx, d.cancel = context.WithCancel(context.Background())

	hdr, err := segmentHeader(d.sig, nil, nil)
	if err != nil {
		return nil, err
	}
	// Every open and replay checks the segments' headers in manifest
	// order, so the last check leaves legacyTail describing the tail.
	rhdr, err := segmentHeader(roundSignature(d.sig), d.sig, func(legacy bool) { d.legacyTail = legacy })
	if err != nil {
		return nil, err
	}
	// The event journal opens first: its latest checkpoint decides which
	// rounds recovery absorbs and which it refreshes.
	var scan eventScan
	if d.events, err = journal.OpenLog(cfg.FS, dir, "events", hdr, cfg.SegmentBytes, scan.frame); err != nil {
		return nil, err
	}
	d.superseded = scan.ckptBytes
	if !scan.acked && scan.ckpt != nil {
		d.ckpt, d.ckptAt = scan.ckpt, scan.ckptAt
		d.superseded -= frameBytes(scan.ckpt)
	}
	det, regen, rerun, err := d.recover(func(fn func([]byte) error) (err error) {
		d.rounds, err = journal.OpenLog(cfg.FS, dir, "rounds", rhdr, cfg.SegmentBytes, fn)
		return err
	})
	if err != nil {
		d.closeFiles(false)
		return nil, err
	}
	d.journaled = scan.bodies
	if scan.acked {
		// An event journal an earlier version compacted: its acknowledged
		// prefix is the full replay's.
		if scan.ack > int64(len(regen)) {
			d.closeFiles(false)
			return nil, fmt.Errorf("stream: event journal acks %d events but the round WAL regenerates only %d; WAL pair is inconsistent", scan.ack, len(regen))
		}
		d.journaled = append(regen[:scan.ack:scan.ack], scan.bodies...)
	}
	deliver, err := d.settleLocked(det, regen, rerun)
	if err != nil {
		d.closeFiles(false)
		return nil, err
	}
	if cfg.OnEvent != nil {
		for _, ev := range deliver {
			cfg.OnEvent(ev)
		}
	}
	return d, nil
}

// eventScan is what opening the event journal found: the journaled event
// bodies, the latest refresh checkpoint, and whether the journal opens
// with an earlier version's ack frame.
type eventScan struct {
	acked     bool
	ack       int64   // events the ack frame stands for
	bodies    []Event // the journaled events after them
	ckpt      []byte  // the latest 'C' payload
	ckptAt    int64   // events journaled before it
	ckptBytes int64   // the journal bytes of every 'C' frame
}

// frame is the event journal's open callback.
func (s *eventScan) frame(payload []byte) error {
	df, err := decodeStreamFrame(payload)
	if err != nil {
		return journal.Torn(err)
	}
	n := s.ack + int64(len(s.bodies)) // events journaled so far
	switch df.Tag {
	case frameEventsAck:
		if s.acked || n != 0 {
			return fmt.Errorf("event ack frame after %d journaled events", n)
		}
		if df.Ack.Count < 0 {
			return fmt.Errorf("event ack frame counts %d events", df.Ack.Count)
		}
		s.acked, s.ack = true, df.Ack.Count
	case frameEvent:
		if df.Event.Seq != n {
			return fmt.Errorf("event journal seq %d, expected %d", df.Event.Seq, n)
		}
		s.bodies = append(s.bodies, *df.Event)
	case frameRefresh:
		if df.Refresh.NextEvent != n || df.Refresh.Processed < 1 {
			return fmt.Errorf("refresh checkpoint after round %d counts %d events but follows %d; WAL pair is inconsistent",
				df.Refresh.Processed, df.Refresh.NextEvent, n)
		}
		s.ckpt, s.ckptAt = append([]byte(nil), payload...), n
		s.ckptBytes += frameBytes(payload)
	default:
		return fmt.Errorf("unexpected %q frame in event WAL", df.Tag)
	}
	return nil
}

// frameRounds expands one round-WAL data frame into the rounds it
// journals: a round frame, packed or gob, is one round, and a 'K' base
// frame an earlier version's compaction wrote is every round up to its
// compaction point, reconstructed bit-identically.
func (d *Daemon) frameRounds(df decodedFrame) ([]*Round, error) {
	switch df.Tag {
	case frameRound, frameGobRound:
		return []*Round{df.Round}, nil
	case frameCompactRounds:
		return expandCompactBase(df.Base, d.cfg, len(d.world), d.obsCount)
	default:
		return nil, fmt.Errorf("unexpected %q frame in round WAL", df.Tag)
	}
}

// newDetector builds the fresh detector a replay starts from.
func (d *Daemon) newDetector() *detector {
	det := newDetector(d.cfg, d.rc, d.world, d.obsCount, d.lanes)
	det.hookBlock = d.hookBlock
	return det
}

// recover builds the detector the journals imply; Open and the watchdog
// rebuild it this one way. scan walks the round journal (opening it, or
// replaying it) with the callback it is given. The rounds the latest
// checkpoint d.ckpt covers are absorbed without refreshing and the
// checkpoint restored; the rounds after it are ingested, refreshes
// included. It returns the events those refreshes derive, and whether
// any ran.
func (d *Daemon) recover(scan func(fn func([]byte) error) error) (det *detector, regen []Event, rerun bool, err error) {
	det = d.newDetector()
	var ckpt *refreshCheckpoint
	if d.ckpt != nil {
		df, err := decodeStreamFrame(d.ckpt)
		if err != nil {
			return nil, nil, false, err
		}
		ckpt = df.Refresh
	}
	err = scan(decoded(func(df decodedFrame) error {
		rs, err := d.frameRounds(df)
		if err != nil {
			return err
		}
		for _, r := range rs {
			if ckpt != nil && det.processed < ckpt.Processed {
				if err := det.absorb(r); err != nil {
					return err
				}
				if det.processed == ckpt.Processed {
					if err := det.restore(ckpt); err != nil {
						return err
					}
				}
				continue
			}
			before := det.refreshes
			evs, err := det.ingest(r)
			if err != nil {
				return err
			}
			regen = append(regen, evs...)
			rerun = rerun || det.refreshes != before
		}
		return nil
	}))
	if err != nil {
		return nil, nil, false, err
	}
	if ckpt != nil && det.processed < ckpt.Processed {
		return nil, nil, false, fmt.Errorf("stream: the event journal's checkpoint covers %d rounds but the round WAL holds only %d; WAL pair is inconsistent", ckpt.Processed, det.processed)
	}
	return det, regen, rerun, nil
}

// settleLocked installs a recovered detector. The events journaled after
// the restored checkpoint must be a prefix of the events the replay
// regenerated (rounds are journaled before their events, so the journal
// can never be ahead); a divergent prefix means the WAL pair is
// inconsistent, and recovery refuses to run rather than emit duplicates
// or gaps. The regenerated events a crash cut off are journaled, and
// when the replay re-ran a refresh, a checkpoint of the last one follows
// them, so the next recovery starts there. It returns the events it
// journaled, for delivery.
func (d *Daemon) settleLocked(det *detector, regen []Event, rerun bool) ([]Event, error) {
	var base int64 // events journaled before the replayed refreshes
	if d.ckpt != nil {
		base = d.ckptAt
	}
	journaled := d.journaled[base:]
	if len(journaled) > len(regen) {
		return nil, fmt.Errorf("stream: event journal has %d events past its checkpoint but the round WAL replays only %d; WAL pair is inconsistent", len(journaled), len(regen))
	}
	for i := range journaled {
		if journaled[i] != regen[i] {
			return nil, fmt.Errorf("stream: journaled event %d diverges from deterministic replay; WAL pair is inconsistent", base+int64(i))
		}
	}
	cut := regen[len(journaled):]
	for _, ev := range cut {
		if err := d.appendEventLocked(ev); err != nil {
			return nil, err
		}
	}
	if rerun {
		payload, err := encodeStreamFrame(frameRefresh, det.checkpoint())
		if err != nil {
			return nil, err
		}
		d.appendCheckpointLocked(payload)
	}
	d.det = det
	d.detStats = snapshotDet(det)
	d.nextSeq = det.processed
	return cut, nil
}

// govLocked sums both journals' storage-governance counters; lastGov
// keeps them for Stats after Close.
func (d *Daemon) govLocked() journal.Usage {
	if d.rounds == nil || d.events == nil {
		return d.lastGov
	}
	r, e := d.rounds.Usage(), d.events.Usage()
	return journal.Usage{
		Bytes:       r.Bytes + e.Bytes,
		Segments:    r.Segments + e.Segments,
		Rotations:   r.Rotations + e.Rotations,
		Compactions: r.Compactions + e.Compactions,
	}
}

// compactEventsLocked rewrites the event WAL as a single base segment:
// every journaled event, with the latest refresh checkpoint in its place
// among them; the checkpoints before it are superseded and dropped. A
// no-op when nothing was journaled since the last compaction.
func (d *Daemon) compactEventsLocked() error {
	if d.eventFrames == d.compactedAt {
		return nil
	}
	payloads := make([][]byte, 0, len(d.journaled)+1)
	for i := 0; i <= len(d.journaled); i++ {
		if d.ckpt != nil && int64(i) == d.ckptAt {
			payloads = append(payloads, d.ckpt)
		}
		if i == len(d.journaled) {
			break
		}
		payload, err := encodeStreamFrame(frameEvent, d.journaled[i])
		if err != nil {
			d.lastStorageErr = err.Error()
			return err
		}
		payloads = append(payloads, payload)
	}
	if err := d.events.Compact(payloads...); err != nil {
		d.lastStorageErr = err.Error()
		return err
	}
	d.compactedAt = d.eventFrames
	d.superseded = 0
	return nil
}

// Start launches the analysis loop and, when configured, the watchdog.
func (d *Daemon) Start() {
	d.mu.Lock()
	gen := d.gen
	det := d.det
	d.mu.Unlock()
	d.wg.Add(1)
	go d.loop(gen, det)
	if d.cfg.Watchdog > 0 {
		d.wg.Add(1)
		go d.watchdog()
	}
}

// NextIngestSeq returns the sequence number Ingest expects next — after a
// restart, the feeder resumes from here.
func (d *Daemon) NextIngestSeq() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nextSeq
}

// Ingest admits one round: it is validated, made durable in the round
// WAL, and queued for analysis. Ingest blocks while the queue is full
// (bounded admission) until space frees, ctx is done, or the daemon
// stops. Rounds must arrive strictly in sequence.
func (d *Daemon) Ingest(ctx context.Context, r *Round) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return d.stopErr()
		}
		if r.Seq != d.nextSeq {
			return fmt.Errorf("stream: round seq %d, expected %d", r.Seq, d.nextSeq)
		}
		if r.Seq >= d.cfg.rounds() {
			return fmt.Errorf("stream: round %d past the analysis window (%d rounds total)", r.Seq, d.cfg.rounds())
		}
		if err := d.validateShape(r); err != nil {
			return err
		}
		if len(d.queue) < d.cfg.MaxQueue {
			break
		}
		ch := d.progress
		d.mu.Unlock()
		select {
		case <-ctx.Done():
			d.mu.Lock()
			return ctx.Err()
		case <-d.ctx.Done():
			d.mu.Lock()
			return d.stopErr()
		case <-ch:
			d.mu.Lock()
		}
	}
	if d.legacyTail {
		// A tail signed before packed round frames is sealed first, so
		// that no segment a binary unable to read them would accept ever
		// holds one.
		if err := d.rounds.Rotate(); err != nil {
			d.lastStorageErr = err.Error()
			return fmt.Errorf("stream: sealing the round journal before packed rounds: %w", err)
		}
		d.legacyTail = false
	}
	d.roundBuf = encodeRoundFrame(d.roundBuf[:0], r)
	payload := d.roundBuf
	// Disk-budget accounting: if admitting this frame would overrun the
	// budget, compact the event journal first; if the journals still
	// cannot fit it, shed the round — the WALs stay intact and the daemon
	// keeps serving.
	need := frameBytes(payload)
	if d.cfg.DiskBudget > 0 && d.govLocked().Bytes+need > d.cfg.DiskBudget {
		d.compactEventsLocked()
		if got := d.govLocked().Bytes; got+need > d.cfg.DiskBudget {
			d.sheds++
			d.lastStorageErr = fmt.Sprintf("disk budget %d exhausted: journals hold %d bytes, round %d needs %d more", d.cfg.DiskBudget, got, r.Seq, need)
			return fmt.Errorf("stream: admitting round %d: %w", r.Seq, ErrDiskPressure)
		}
	}
	if err := d.rounds.Append(payload); err != nil {
		// An out-of-space append was rolled back to the last intact frame;
		// compacting the event journal may free enough to retry once.
		if !isNoSpace(err) {
			d.lastStorageErr = err.Error()
			return err
		}
		d.compactEventsLocked()
		if err = d.rounds.Append(payload); err != nil {
			d.sheds++
			d.lastStorageErr = err.Error()
			if isNoSpace(err) {
				return fmt.Errorf("stream: admitting round %d: %v: %w", r.Seq, err, ErrDiskPressure)
			}
			return err
		}
	}
	d.nextSeq++
	d.queue = append(d.queue, r)
	if len(d.queue) > d.maxDepth {
		d.maxDepth = len(d.queue)
	}
	d.bump()
	return nil
}

// validateShape checks a round's window and per-block stream counts
// before it is made durable, so a malformed round is rejected at the door
// instead of poisoning the WAL.
func (d *Daemon) validateShape(r *Round) error {
	start, end := d.cfg.roundWindow(r.Seq)
	if r.Start != start || r.End != end {
		return fmt.Errorf("stream: round %d window [%d,%d), expected [%d,%d)", r.Seq, r.Start, r.End, start, end)
	}
	if len(r.Blocks) != len(d.world) {
		return fmt.Errorf("stream: round %d covers %d blocks, world has %d", r.Seq, len(r.Blocks), len(d.world))
	}
	for b, perObs := range r.Blocks {
		if len(perObs) != d.obsCount {
			return fmt.Errorf("stream: round %d block %d has %d observer streams, expected %d", r.Seq, b, len(perObs), d.obsCount)
		}
	}
	return nil
}

// appendEventLocked journals one event, retrying once after an
// out-of-space failure by compacting the event journal (which drops
// every superseded refresh checkpoint).
func (d *Daemon) appendEventLocked(ev Event) error {
	err := appendFrame(d.events, frameEvent, ev)
	if err != nil && isNoSpace(err) {
		if cerr := d.compactEventsLocked(); cerr == nil {
			err = appendFrame(d.events, frameEvent, ev)
		}
	}
	if err != nil {
		d.lastStorageErr = err.Error()
		return err
	}
	d.journaled = append(d.journaled, ev)
	d.eventFrames++
	return nil
}

// appendCheckpointLocked journals a refresh checkpoint after every event
// journaled so far. It is best-effort: a checkpoint only shortens
// recovery, so a failed append is surfaced in Stats and the next recovery
// starts from the checkpoint before it.
//
// The checkpoint supersedes the one before it. Once the superseded ones
// outweigh both a segment and the rest of the journal, the event journal
// is compacted, so they never hold more than the larger of the two and a
// compaction's rewrite is paid for by as many bytes appended since the
// last one.
func (d *Daemon) appendCheckpointLocked(payload []byte) {
	if err := d.events.Append(payload); err != nil {
		d.lastStorageErr = err.Error()
		return
	}
	if d.ckpt != nil {
		d.superseded += frameBytes(d.ckpt)
	}
	d.ckpt, d.ckptAt = payload, int64(len(d.journaled))
	d.eventFrames++
	if d.superseded > max(d.cfg.SegmentBytes, d.events.Usage().Bytes-d.superseded) {
		d.compactEventsLocked() // best-effort; failure is surfaced in stats
	}
}

// frameBytes is the journal bytes one frame of payload takes.
func frameBytes(payload []byte) int64 { return int64(len(payload)) + journal.Overhead }

// bump signals every waiter (ingesters waiting for queue space, Drain,
// the analysis loop) that state changed.
func (d *Daemon) bump() {
	close(d.progress)
	d.progress = make(chan struct{})
}

func (d *Daemon) stopErr() error {
	if d.err != nil {
		return d.err
	}
	if d.aborted {
		return fmt.Errorf("stream: daemon aborted")
	}
	return fmt.Errorf("stream: daemon closed")
}

// loop is one generation of the analysis goroutine.
func (d *Daemon) loop(gen int64, det *detector) {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		for len(d.queue) == 0 {
			if d.gen != gen || d.closed {
				d.mu.Unlock()
				return
			}
			ch := d.progress
			d.mu.Unlock()
			select {
			case <-d.ctx.Done():
			case <-ch:
			}
			d.mu.Lock()
		}
		if d.gen != gen || d.closed {
			d.mu.Unlock()
			return
		}
		r := d.queue[0]
		d.busy = true
		d.busySince = d.cfg.Clock.Now()
		hook := d.hookProcess
		d.mu.Unlock()

		if hook != nil {
			hook(r) // test seam: may block to simulate a wedged kernel
		}
		before := det.refreshes
		evs, err := det.ingest(r)
		var ckpt []byte
		if err == nil && det.refreshes != before {
			ckpt, err = encodeStreamFrame(frameRefresh, det.checkpoint())
		}

		d.mu.Lock()
		if d.gen != gen || d.closed {
			// Fenced: a watchdog rebuild (or Close/Abort) superseded this
			// loop while it was working; its results are discarded — the
			// rebuild replayed this round from the WAL already.
			d.mu.Unlock()
			return
		}
		d.busy = false
		d.detStats = snapshotDet(det)
		if err != nil {
			d.err = fmt.Errorf("stream: processing round %d: %w", r.Seq, err)
			d.cancel()
			d.bump()
			d.mu.Unlock()
			return
		}
		for _, ev := range evs {
			if err := d.appendEventLocked(ev); err != nil {
				d.err = err
				d.cancel()
				d.bump()
				d.mu.Unlock()
				return
			}
		}
		if ckpt != nil {
			d.appendCheckpointLocked(ckpt)
		}
		d.queue = d.queue[1:]
		onEvent := d.cfg.OnEvent
		d.bump()
		d.mu.Unlock()

		if onEvent != nil {
			for _, ev := range evs {
				onEvent(ev)
			}
		}
	}
}

// watchdog restarts the analysis loop when a single round's processing
// exceeds the patience budget.
func (d *Daemon) watchdog() {
	defer d.wg.Done()
	poll := d.cfg.Watchdog / 2
	if poll <= 0 {
		poll = d.cfg.Watchdog
	}
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-d.cfg.Clock.After(poll):
		}
		d.mu.Lock()
		if !d.closed && d.busy && d.cfg.Clock.Now().Sub(d.busySince) >= d.cfg.Watchdog {
			if err := d.restartLocked(); err != nil {
				d.err = err
				d.cancel()
				d.bump()
			}
		}
		d.mu.Unlock()
	}
}

// restartLocked fences the current analysis loop and recovers the
// detector from the journals — crash recovery without the crash. Queued
// rounds are already durable, so the recovered detector has consumed
// them; the queue empties and admission reopens.
func (d *Daemon) restartLocked() error {
	d.gen++
	d.restarts++
	d.busy = false
	det, regen, rerun, err := d.recover(d.rounds.Replay)
	if err != nil {
		return fmt.Errorf("stream: watchdog rebuild: %w", err)
	}
	// Journal and deliver whatever the fenced loop had derived but not
	// yet committed.
	deliver, err := d.settleLocked(det, regen, rerun)
	if err != nil {
		return err
	}
	d.queue = nil
	d.bump()
	d.wg.Add(1)
	go d.loop(d.gen, det)
	if d.cfg.OnEvent != nil {
		for _, ev := range deliver {
			d.cfg.OnEvent(ev)
		}
	}
	return nil
}

// Drain blocks until every admitted round has been processed (or ctx is
// done, or the daemon fails). A drained daemon can be Closed without
// losing pending work.
func (d *Daemon) Drain(ctx context.Context) error {
	for {
		d.mu.Lock()
		if d.err != nil {
			err := d.err
			d.mu.Unlock()
			return err
		}
		if d.closed {
			err := d.stopErr()
			d.mu.Unlock()
			return err
		}
		if len(d.queue) == 0 && !d.busy {
			d.mu.Unlock()
			return nil
		}
		ch := d.progress
		d.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		case <-d.ctx.Done():
		}
	}
}

// Events returns a copy of the journaled event log.
func (d *Daemon) Events() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Event(nil), d.journaled...)
}

// Result assembles the world-level result from the final refresh. It
// requires the stream to be complete and drained; the output aggregates
// exactly as the batch pipeline does. A daemon reopened after its final
// refresh analyzes its blocks here, once.
func (d *Daemon) Result() (*core.WorldResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return nil, d.err
	}
	if len(d.queue) > 0 || d.busy {
		return nil, fmt.Errorf("stream: %d rounds still queued; Drain first", len(d.queue))
	}
	res, err := d.det.result()
	d.detStats = snapshotDet(d.det)
	return res, err
}

// detSnapshot mirrors the detector counters Stats reports. The analysis
// loop mutates its detector *outside* d.mu (ingest is the long pole and
// must not block admission), so Stats can never touch d.det directly;
// the loop refreshes this mirror under d.mu after every round.
type detSnapshot struct {
	processed, refreshes, blockErrs int64
	rebuilds, certifications        int64
}

func snapshotDet(det *detector) detSnapshot {
	s := detSnapshot{
		processed: det.processed,
		refreshes: det.refreshes,
		blockErrs: det.blockErrs,
	}
	for _, bs := range det.blocks {
		certs, _ := bs.front.Certified()
		s.rebuilds += int64(bs.rebuilds)
		s.certifications += int64(certs)
	}
	return s
}

// Stats snapshots daemon health.
func (d *Daemon) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	gov := d.govLocked()
	return Stats{
		IngestedRounds:       d.nextSeq,
		ProcessedRounds:      d.detStats.processed,
		Refreshes:            d.detStats.refreshes,
		Events:               int64(len(d.journaled)),
		Restarts:             d.restarts,
		MaxQueueDepth:        d.maxDepth,
		BlockErrors:          d.detStats.blockErrs,
		FrontRebuilds:        d.detStats.rebuilds,
		BeliefCertifications: d.detStats.certifications,
		DiskBytes:            gov.Bytes,
		DiskBudget:           d.cfg.DiskBudget,
		WALSegments:          gov.Segments,
		Rotations:            gov.Rotations,
		Compactions:          gov.Compactions,
		PressureSheds:        d.sheds,
		LastStorageErr:       d.lastStorageErr,
	}
}

// Close stops the daemon gracefully: no new admissions, the analysis
// loop and watchdog exit, and both WALs are fsynced and closed. Pending
// queued rounds are NOT processed (they are durable; the next Open
// replays them) — call Drain first for a clean shutdown.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.gen++ // fence any in-flight loop
	d.cancel()
	d.bump()
	d.mu.Unlock()
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closeFiles(true)
}

// Abort simulates SIGKILL for crash tests: every goroutine is fenced,
// nothing is flushed or drained, and the files are closed immediately.
// Frames already written by completed write() calls survive — exactly the
// durability a killed process gets from the page cache.
func (d *Daemon) Abort() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	d.aborted = true
	d.gen++
	d.cancel()
	d.bump()
	d.closeFiles(false)
}

func (d *Daemon) closeFiles(sync bool) error {
	d.lastGov = d.govLocked()
	var first error
	if d.rounds != nil {
		if err := d.rounds.Close(sync); err != nil && first == nil {
			first = err
		}
		d.rounds = nil
	}
	if d.events != nil {
		if err := d.events.Close(sync); err != nil && first == nil {
			first = err
		}
		d.events = nil
	}
	return first
}
