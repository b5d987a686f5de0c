// Package stream turns the batch analysis pipeline into a long-running
// service: a daemon that ingests probe rounds incrementally, re-runs the
// shared analysis kernel over them every few rounds, and emits the
// kernel's change events once they hold across refreshes, with bounded
// latency, instead of rediscovering the quarter retrospectively.
//
// Robustness is the design center. Every ingested round lands in a
// durable CRC-framed WAL (an internal/journal segmented log, like the
// checkpoint journal) before it is admitted; every emitted event carries
// a monotonic sequence number and is journaled before delivery, followed
// after each refresh by a checkpoint of the detector's emission state;
// and the daemon's only recovery mechanism — for SIGKILL, for a wedged
// analysis loop restarted by the watchdog, for plain restarts — is to
// restore the latest checkpoint over the rounds it covers and
// deterministically replay the round WAL after it, which reconstructs the
// exact detector state and regenerates the exact event sequence. Replayed
// events must match the journaled ones byte for byte (a mismatch means a
// foreign or corrupt WAL and fails loudly); events the crash cut off are
// re-derived and appended. The result is an exactly-once event log:
// consumers resume from their last sequence number with no duplicates and
// no gaps.
//
// Analysis itself is shared with the batch driver: each block keeps a
// core.FrontState, the kernel's record-level half advanced by the records
// ingested since the last refresh, and each refresh analyzes it with the
// kernel's series-level half. A FrontState gives what
// core.AnalyzeCollectedScratch gives over the block's whole history, bit
// for bit, so a streaming run that has seen a block's full window produces
// bit-identical results to a batch run of the same world. A refresh
// analyzes the blocks on up to GOMAXPROCS goroutines and then numbers
// their events in block order, so the event log does not depend on how
// many goroutines ran or how they were scheduled.
package stream

import (
	"fmt"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/health"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/storage"
)

// Config parameterizes a streaming daemon. Zero fields take defaults.
type Config struct {
	// Core is the shared analysis configuration, which Open resolves (an
	// invalid one fails Open). AnalysisStart/End bound the stream, and a
	// baseline that ends before the analysis window does gates the first
	// refresh (classification needs a complete baseline).
	Core core.Config
	// RoundLen is the seconds of data one ingested round covers (default
	// one day); the last round is clipped to AnalysisEnd and may be
	// shorter. It must be a positive multiple of 3600. No analysis needs
	// whole hours any more; the check stays so the inputs a daemon
	// accepts do not change.
	RoundLen int64
	// RefreshEvery runs a full trend refresh every N rounds (default 1:
	// every round). Refreshes are where candidates are found, confirmed,
	// and emitted, so this is the latency quantum.
	RefreshEvery int
	// ConfirmRefreshes is how many consecutive refreshes a candidate must
	// survive before emission (default 2). Together with RefreshEvery it
	// bounds detection latency: an event is emitted at most
	// ConfirmRefreshes*RefreshEvery rounds after it is first seen and
	// eligible.
	ConfirmRefreshes int
	// MaxQueue bounds rounds admitted but not yet processed (default 64).
	// Ingest blocks — bounded admission, not unbounded buffering — when
	// the analysis loop falls this far behind.
	MaxQueue int
	// Watchdog, when positive, bounds how long the analysis loop may go
	// without completing a step before it is declared wedged and
	// restarted from the WAL (state rebuild is the same deterministic
	// replay as crash recovery). Zero disables the watchdog.
	Watchdog time.Duration
	// SegmentBytes is the WAL rotation threshold (default 8 MiB, minimum
	// 4 KiB): once a journal's tail segment exceeds it, the tail is
	// sealed and appends move to a fresh segment. The round journal is
	// append-only, bounded by the analysis window.
	SegmentBytes int64
	// DiskBudget, when positive, bounds the bytes the daemon's journals
	// may occupy together. When an admission would exceed it even after
	// compacting the event journal, Ingest sheds the round with
	// ErrDiskPressure instead of corrupting a WAL; the caller decides
	// whether to retry, alert, or stop. Must be at least SegmentBytes.
	DiskBudget int64
	// FS is the filesystem the journals are written through (default the
	// real filesystem). Tests substitute a faults.FS here to script
	// ENOSPC, short writes, and failed fsyncs.
	FS storage.FS
	// Clock injects time for the watchdog (default wall clock).
	Clock health.Clock
	// OnEvent, when non-nil, is invoked for every event after it is
	// journaled, in sequence order — the live delivery tail. Replay after
	// a restart does not re-deliver journaled events.
	OnEvent func(Event)
}

func (c Config) withDefaults() Config {
	if c.RoundLen == 0 {
		c.RoundLen = netsim.SecondsPerDay
	}
	if c.RefreshEvery == 0 {
		c.RefreshEvery = 1
	}
	if c.ConfirmRefreshes == 0 {
		c.ConfirmRefreshes = 2
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.Clock == nil {
		c.Clock = health.System
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 8 << 20
	}
	if c.FS == nil {
		c.FS = storage.OS
	}
	return c
}

func (c Config) validate() error {
	if c.RoundLen <= 0 || c.RoundLen%3600 != 0 {
		return fmt.Errorf("stream: round length %d must be a positive multiple of 3600", c.RoundLen)
	}
	if c.RefreshEvery < 1 {
		return fmt.Errorf("stream: refresh every %d rounds", c.RefreshEvery)
	}
	if c.ConfirmRefreshes < 1 {
		return fmt.Errorf("stream: confirm refreshes %d", c.ConfirmRefreshes)
	}
	if c.MaxQueue < 1 {
		return fmt.Errorf("stream: max queue %d", c.MaxQueue)
	}
	if c.SegmentBytes < 4096 {
		return fmt.Errorf("stream: WAL segment threshold %d bytes (minimum 4096)", c.SegmentBytes)
	}
	if c.DiskBudget < 0 || (c.DiskBudget > 0 && c.DiskBudget < c.SegmentBytes) {
		return fmt.Errorf("stream: disk budget %d bytes must be 0 or >= the segment threshold %d", c.DiskBudget, c.SegmentBytes)
	}
	return nil
}

// LatencyBound is the detection-latency contract in rounds: an event is
// emitted at most ConfirmRefreshes*RefreshEvery rounds after it is first
// seen and eligible (defaults applied), unless the final flush emits it.
func (c Config) LatencyBound() int64 {
	c = c.withDefaults()
	return int64(c.ConfirmRefreshes * c.RefreshEvery)
}

// rounds returns how many rounds tile the analysis window.
func (c Config) rounds() int64 {
	span := c.Core.AnalysisEnd - c.Core.AnalysisStart
	return (span + c.RoundLen - 1) / c.RoundLen
}

// roundWindow returns the wall-clock window of round seq.
func (c Config) roundWindow(seq int64) (start, end int64) {
	start = c.Core.AnalysisStart + seq*c.RoundLen
	end = start + c.RoundLen
	if end > c.Core.AnalysisEnd {
		end = c.Core.AnalysisEnd
	}
	return start, end
}

// Round is one ingestion unit: every block's per-observer records for one
// wall-clock slice of the analysis window. Rounds are ingested strictly
// in sequence.
type Round struct {
	// Seq is the round's position in the stream, starting at 0.
	Seq int64
	// Start and End are the round's window, [Start, End): the slice of
	// the analysis window it stands for. They do not bound the records'
	// timestamps. A feeder cuts each stream where the window starts, and
	// on a faulty stream (clock skew, re-sent or reordered batches) some
	// records land in a round whose window does not hold them, some of
	// them earlier than rounds already ingested.
	Start, End int64
	// Blocks holds, per world block, per observer, the records of the
	// round, in the order the observer delivered them.
	Blocks [][][]probe.Record
}

// Event is one detected change, emitted exactly once with a monotonic
// sequence number.
type Event struct {
	// Seq is the event's position in the journaled event log, starting
	// at 0 with no gaps.
	Seq int64
	// Block is the block's index in the world; ID its netsim identity.
	Block int
	ID    netsim.BlockID
	// Change is the detected change as of the emitting refresh.
	Change core.Change
	// FirstSeenSeq is the round sequence of the refresh that began the
	// candidate's unbroken run of presence up to its emission (a refresh
	// that misses the candidate starts the run over); EligibleSeq the
	// round at which the stability guard (boundary + outage-pair horizons
	// past the change) was satisfied; EmitSeq the round whose refresh
	// emitted it. The bounded-latency contract is
	//
	//	EmitSeq - max(FirstSeenSeq, EligibleSeq) <= ConfirmRefreshes*RefreshEvery
	FirstSeenSeq, EligibleSeq, EmitSeq int64
}

// Stats is a point-in-time snapshot of daemon health.
type Stats struct {
	// IngestedRounds and ProcessedRounds count WAL-durable and
	// analysis-complete rounds; the difference is the queue depth.
	IngestedRounds, ProcessedRounds int64
	// Refreshes counts trend refreshes run (across restarts: recovery
	// restores the count from the refresh checkpoint).
	Refreshes int64
	// Events is the journaled event count.
	Events int64
	// Restarts counts watchdog-triggered analysis-loop rebuilds.
	Restarts int64
	// MaxQueueDepth is the high-water mark of admitted-but-unprocessed
	// rounds since open.
	MaxQueueDepth int
	// BlockErrors counts per-block refresh failures (the block is skipped
	// for that refresh, not the stream). A panic in the analysis kernel is
	// one such failure.
	BlockErrors int64
	// FrontRebuilds counts the times a refresh rebuilt a block's front
	// half over the whole history, and BeliefCertifications the times a
	// refresh re-ran a block's outage belief in full to certify its trace
	// (see core.FrontState); both since open, replayed refreshes included.
	// Each makes its refresh slower than one that advances by the new
	// rounds. The first refresh after recovery restores a refresh
	// checkpoint rebuilds every block.
	FrontRebuilds, BeliefCertifications int64
	// DiskBytes is the bytes the daemon's journals occupy right now;
	// DiskBudget echoes the configured bound (0: unlimited).
	DiskBytes, DiskBudget int64
	// WALSegments counts live segment files across both journals.
	WALSegments int
	// Rotations and Compactions count WAL segment rollovers and
	// event-journal rewrites since open.
	Rotations, Compactions int64
	// PressureSheds counts rounds refused admission because the disk
	// budget was exhausted even after compaction.
	PressureSheds int64
	// LastStorageErr is the most recent storage-plane failure message
	// (shed, failed append, failed compaction), empty if none.
	LastStorageErr string
}
