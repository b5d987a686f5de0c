package stream

// The daemon: durable ingestion in front of the deterministic detector.
//
// Correctness argument, in one place. The WAL protocol is
//
//	ingest:  round → rounds.wal (single write) → admission queue
//	process: round → detector → events → events.wal → OnEvent delivery
//
// so at any kill point rounds.wal holds every admitted round and
// events.wal holds a prefix of the events the detector derives from them.
// Recovery — whether from SIGKILL (Open) or from a wedged analysis loop
// (the watchdog) — is one code path: rebuild a fresh detector by
// replaying rounds.wal. Determinism makes the regenerated event sequence
// equal the journaled one on the shared prefix (verified frame by frame;
// a mismatch fails the open rather than corrupting the log), and any
// events the crash cut off are re-derived, appended, and delivered. Event
// sequence numbers are therefore contiguous and each event is journaled
// exactly once.
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
	lastCompactSeq int64  // nextSeq at the last rounds compaction (-1: never)
	lastAckCount   int64  // journaled count at the last events compaction (-1: never)
	lastGov        journal.Usage

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
// replayed: the detector state is rebuilt deterministically, journaled
// events are verified against the regenerated sequence, and events a
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
		cfg:            cfg,
		rc:             rc,
		world:          world,
		obsCount:       obsCount,
		sig:            runSignature(cfg, world),
		dir:            dir,
		progress:       make(chan struct{}),
		lastCompactSeq: -1,
		lastAckCount:   -1,
		lanes:          lanes,
		hookBlock:      hookBlock,
	}
	d.ctx, d.cancel = context.WithCancel(context.Background())

	hdr, err := segmentHeader(d.sig)
	if err != nil {
		return nil, err
	}
	det := d.newDetector()
	var regen []Event
	rw, err := journal.OpenLog(cfg.FS, dir, "rounds", hdr, cfg.SegmentBytes, d.rebuild(det, &regen))
	if err != nil {
		return nil, err
	}
	d.rounds = rw
	sawAck := false
	ew, err := journal.OpenLog(cfg.FS, dir, "events", hdr, cfg.SegmentBytes, decoded(func(df decodedFrame) error {
		switch df.Tag {
		case frameEventsAck:
			// A compacted event journal opens with the count of events the
			// round WAL regenerates deterministically; their bodies were
			// subsumed by the base segment.
			if sawAck || len(d.journaled) != 0 {
				return fmt.Errorf("event ack frame after %d journaled events", len(d.journaled))
			}
			sawAck = true
			if df.Ack.Count < 0 || df.Ack.Count > int64(len(regen)) {
				return fmt.Errorf("event journal acks %d events but the round WAL regenerates only %d; WAL pair is inconsistent", df.Ack.Count, len(regen))
			}
			d.journaled = append(d.journaled, regen[:df.Ack.Count]...)
			return nil
		case frameEvent:
			if want := int64(len(d.journaled)); df.Event.Seq != want {
				return fmt.Errorf("event journal seq %d, expected %d", df.Event.Seq, want)
			}
			d.journaled = append(d.journaled, *df.Event)
			return nil
		default:
			return fmt.Errorf("unexpected %q frame in event WAL", df.Tag)
		}
	}))
	if err != nil {
		rw.Close(false)
		return nil, err
	}
	d.events = ew

	// Exactly-once check: the journal must be a prefix of the regenerated
	// sequence (rounds are journaled before their events, so the journal
	// can never be ahead). A divergent prefix means the WAL pair is
	// inconsistent — refuse to run rather than emit duplicates or gaps.
	if len(d.journaled) > len(regen) {
		d.closeFiles(false)
		return nil, fmt.Errorf("stream: event journal has %d events but the round WAL replays only %d; WAL pair is inconsistent", len(d.journaled), len(regen))
	}
	for i := range d.journaled {
		if d.journaled[i] != regen[i] {
			d.closeFiles(false)
			return nil, fmt.Errorf("stream: journaled event %d diverges from deterministic replay; WAL pair is inconsistent", i)
		}
	}
	// Events the crash cut off: re-journal and deliver them now.
	for _, ev := range regen[len(d.journaled):] {
		if err := d.appendEventLocked(ev); err != nil {
			d.closeFiles(false)
			return nil, err
		}
		if cfg.OnEvent != nil {
			cfg.OnEvent(ev)
		}
	}
	d.det = det
	d.detStats = snapshotDet(det)
	d.nextSeq = det.processed
	return d, nil
}

// frameRounds expands one round-WAL data frame into the rounds it
// journals: an 'R' frame is one round, a 'K' base frame is every round
// up to its compaction point, reconstructed bit-identically.
func (d *Daemon) frameRounds(df decodedFrame) ([]*Round, error) {
	switch df.Tag {
	case frameRound:
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

// rebuild returns the round journal's replay callback: every journaled
// round goes through det, and the events it derives are appended to
// *regen. Open and the watchdog rebuild the detector this one way.
func (d *Daemon) rebuild(det *detector, regen *[]Event) func([]byte) error {
	return decoded(func(df decodedFrame) error {
		rs, err := d.frameRounds(df)
		if err != nil {
			return err
		}
		for _, r := range rs {
			evs, err := det.ingest(r)
			if err != nil {
				return err
			}
			*regen = append(*regen, evs...)
		}
		return nil
	})
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

// compactRoundsLocked rewrites the round WAL as a single base segment.
// It is lossless: the journaled rounds are collected by replay,
// re-encoded columnarly, and reconstruct bit-identically, so replay
// identity — and with it event identity — is unaffected. A no-op when
// nothing was admitted since the last compaction (the base is already
// minimal).
func (d *Daemon) compactRoundsLocked() error {
	if d.nextSeq == d.lastCompactSeq {
		return nil
	}
	var rounds []*Round
	if err := d.rounds.Replay(decoded(func(df decodedFrame) error {
		rs, err := d.frameRounds(df)
		if err != nil {
			return err
		}
		rounds = append(rounds, rs...)
		return nil
	})); err != nil {
		d.lastStorageErr = err.Error()
		return err
	}
	cb, err := buildCompactBase(rounds, len(d.world), d.obsCount)
	if err != nil {
		d.lastStorageErr = err.Error()
		return err
	}
	payload, err := encodeStreamFrame(frameCompactRounds, cb)
	if err != nil {
		d.lastStorageErr = err.Error()
		return err
	}
	if err := d.rounds.Compact(payload); err != nil {
		d.lastStorageErr = err.Error()
		return err
	}
	d.lastCompactSeq = d.nextSeq
	return nil
}

// compactEventsLocked rewrites the event WAL as a single base segment
// holding one ack frame: every journaled event is regenerable from the
// round WAL, so only the count needs to survive. A no-op when no event
// was journaled since the last compaction.
func (d *Daemon) compactEventsLocked() error {
	if int64(len(d.journaled)) == d.lastAckCount {
		return nil
	}
	payload, err := encodeStreamFrame(frameEventsAck, eventsAck{Count: int64(len(d.journaled))})
	if err != nil {
		d.lastStorageErr = err.Error()
		return err
	}
	if err := d.events.Compact(payload); err != nil {
		d.lastStorageErr = err.Error()
		return err
	}
	d.lastAckCount = int64(len(d.journaled))
	return nil
}

// compactAllLocked compacts both journals, keeping the first error.
func (d *Daemon) compactAllLocked() error {
	err := d.compactRoundsLocked()
	if eerr := d.compactEventsLocked(); err == nil {
		err = eerr
	}
	return err
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
	payload, err := encodeStreamFrame(frameRound, r)
	if err != nil {
		return err
	}
	// Disk-budget accounting: if admitting this frame would overrun the
	// budget, compact first; if the journals still cannot fit it, shed
	// the round — the WALs stay intact and the daemon keeps serving.
	need := int64(len(payload)) + journal.Overhead
	if d.cfg.DiskBudget > 0 && d.govLocked().Bytes+need > d.cfg.DiskBudget {
		d.compactAllLocked()
		if got := d.govLocked().Bytes; got+need > d.cfg.DiskBudget {
			d.sheds++
			d.lastStorageErr = fmt.Sprintf("disk budget %d exhausted: journals hold %d bytes, round %d needs %d more", d.cfg.DiskBudget, got, r.Seq, need)
			return fmt.Errorf("stream: admitting round %d: %w", r.Seq, ErrDiskPressure)
		}
	}
	if err := d.rounds.Append(payload); err != nil {
		// An out-of-space append was rolled back to the last intact frame;
		// compaction may free enough to retry once.
		if !isNoSpace(err) {
			d.lastStorageErr = err.Error()
			return err
		}
		d.compactAllLocked()
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
	if d.cfg.CompactBytes > 0 && d.rounds.Usage().Bytes > d.cfg.CompactBytes {
		d.compactRoundsLocked() // best-effort; failure is surfaced in stats
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
// out-of-space failure by compacting the event journal (its whole
// history collapses to one ack frame, so compaction almost always
// frees room).
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
	return nil
}

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
		evs, err := det.ingest(r)

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
		if d.cfg.CompactBytes > 0 && d.events.Usage().Bytes > d.cfg.CompactBytes {
			d.compactEventsLocked() // best-effort; failure is surfaced in stats
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

// restartLocked fences the current analysis loop and rebuilds the
// detector from the round WAL — crash recovery without the crash. Queued
// rounds are already durable, so the rebuilt detector has consumed them;
// the queue empties and admission reopens.
func (d *Daemon) restartLocked() error {
	d.gen++
	d.restarts++
	d.busy = false
	det := d.newDetector()
	var regen []Event
	if err := d.rounds.Replay(d.rebuild(det, &regen)); err != nil {
		return fmt.Errorf("stream: watchdog rebuild: %w", err)
	}
	// Journal and deliver whatever the fenced loop had derived but not
	// yet committed.
	var deliver []Event
	for _, ev := range regen[len(d.journaled):] {
		if err := d.appendEventLocked(ev); err != nil {
			return err
		}
		deliver = append(deliver, ev)
	}
	d.det = det
	d.detStats = snapshotDet(det)
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
// exactly as the batch pipeline does.
func (d *Daemon) Result() (*core.WorldResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return nil, d.err
	}
	if len(d.queue) > 0 || d.busy {
		return nil, fmt.Errorf("stream: %d rounds still queued; Drain first", len(d.queue))
	}
	return d.det.result()
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
