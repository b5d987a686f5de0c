// Package faults models realistic measurement- and system-plane failures
// and injects them into the probing substrate and its surroundings. The
// paper's measurement plane is shaped by exactly these pathologies:
// congestive probe loss motivates 1-loss repair (§3.3), unsynchronized,
// occasionally broken observers motivate the cross-observer check that
// discarded sites c and g in 2020 (§2.7), and ICMP rate limiting, reply
// duplication, and spoofing produce well-formed but wrong data that the
// integrity firewall (internal/integrity) exists to catch.
//
// Every injector is deterministic for a fixed Plan seed: each independent
// decision hashes (seed, observer, block, position, salt) through
// netsim.HashUnit, so two runs with the same plan corrupt the same
// records the same way. The only exceptions are the wall-clock-timed
// Stall delay and FS latency, which become deterministic when a fake
// Clock is injected.
//
// Injector catalog, by file:
//
// faults.go — observer/collection faults applied by Engine (a
// core.Prober wrapper):
//
//   - Downtime: an observer goes completely dark for a window (failed
//     hardware), producing no records at all.
//   - GilbertElliott: bursty link loss from a two-state Markov channel,
//     layered on top of the smooth diurnal probe.LossModel.
//   - ClockSkew: a constant offset plus per-day drift on an observer's
//     record timestamps (broken NTP).
//   - Corruption: the record pipeline duplicates, reorders, or truncates
//     whole batches of records (a crashed collector replaying or losing
//     its buffer).
//   - SpuriousCollect: whole collection calls fail transiently for a
//     deterministic subset of blocks (a rebooting collector); cleared by
//     the pipeline's retry.
//   - Stall: a block's collector hangs for a fixed delay before
//     delivering — the straggler hedged re-dispatch exists to outrun.
//   - Poison: every collection call for a selected block panics, forever
//     — the case the dead-letter quarantine exists for.
//   - Flap: an observer's stream goes empty over a window of collection
//     calls — mid-run degradation only the runtime breakers can see.
//
// attacks.go — Byzantine data attacks: observers that lie rather than
// fail, producing well-formed streams of wrong records (the integrity
// firewall's adversaries):
//
//   - RateLimitCliff: positive replies are capped per aligned time
//     window; excess positives report down, carving fake diurnal dips.
//   - DuplicateFlood: probing rounds are re-emitted several times over,
//     inflating duplicate (time, addr) observations.
//   - StaleReplay: the observer re-emits a previous round's records,
//     original timestamps included, after each current round.
//   - TimestampLie: whole rounds are shifted far outside the collection
//     window, misplacing their observations in time.
//   - SpoofPositive: positive replies are forged for addresses the round
//     never probed, many outside the block's target list E(b).
//
// fs.go — FS/FSPlan: a filesystem wrapper injecting write-path faults
// (short writes, failed fsyncs/renames, ENOSPC budgets, torn buffers)
// into the WAL, snapshot, and ledger writers.
//
// process.go — WorkerCrash/LeaseStall: process-level faults for the
// sharded fleet — a worker that dies mid-shard, a leaseholder that
// stalls past its lease.
//
// slowio.go — SlowReaderAt: a ReaderAt with injected per-read latency,
// for deadline-bounded snapshot reads.
//
// Engine wraps a probe.Engine and applies a Plan of observer faults and
// attacks; it satisfies core.Prober, so a faulty engine drops into the
// analysis pipeline unchanged.
package faults
