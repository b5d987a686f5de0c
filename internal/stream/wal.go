package stream

// The daemon's payload codec for its two journals. The journals themselves
// ("rounds" and "events") are internal/journal segmented logs in the
// daemon directory; this file decides only what their frames carry: a
// tag byte followed by the payload. Every segment opens with an 'S'
// header frame binding it to the run (runSignature: the analysis config,
// the world and the daemon's schedule), so a WAL from a different run,
// world or schedule is rejected instead of silently replayed into foreign
// state.
//
// Round frames ('D') are packed by hand (encodeRoundFrame): the round's
// header as varints, then each (block, observer) stream's record count
// and its records in a delta-varint packing. Round segments are signed
// with the run signature hashed with the round codec's version
// (roundSignature), so a binary that predates the codec refuses them as
// another run's rather than cutting the journal at the first frame it
// cannot read. Gob round frames ('R') and segments signed with the plain
// run signature are what earlier versions wrote; they are read, never
// written, and a daemon whose round journal ends in such a segment
// seals it by a rotation before its first append. Every other payload
// is gob.
//
// The round journal is append-only, bounded by the analysis window that
// replay needs whole. Earlier versions rewrote it as one base segment, a
// 'K' frame holding every round; such a base is still read.
//
// The event journal also carries, after each refresh's events, a 'C'
// frame: the detector's emission state after that refresh (its counters
// and every block's candidates). Recovery restores the latest one and
// re-runs only the refreshes after it. Compaction rewrites the event
// journal as one base segment, every journaled event frame with the
// latest 'C' frame in its place, so deterministic replay — and with it
// kill-and-resume event identity — is preserved across every rotation
// and compaction boundary. Event journals compacted by earlier versions
// open with a 'P' frame instead, acknowledging an event prefix that only
// a full replay of the round journal regenerates.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/journal"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// Stream-frame payload tags.
const (
	frameStreamHeader  = 'S'
	frameRound         = 'D' // one round, packed (encodeRoundFrame)
	frameGobRound      = 'R' // one round, gob: earlier versions' round frame, read only
	frameEvent         = 'E'
	frameCompactRounds = 'K' // earlier versions' base segment: every round, read only
	frameEventsAck     = 'P' // earlier base segment: count of replay-regenerable events
	frameRefresh       = 'C' // emission state after one refresh
)

// streamHeader binds a WAL segment to one (config, world) pair.
type streamHeader struct {
	Signature []byte
}

// eventsAck is the 'P' payload earlier versions' event compaction wrote:
// the first Count journaled events were compacted away, and only a full
// replay of the round WAL regenerates them. Open still reads it.
type eventsAck struct {
	Count int64
}

// refreshCheckpoint is the 'C' payload: the detector's emission state
// after the refresh that processed round Processed-1. It follows that
// refresh's events in the event journal, so NextEvent equals the number of
// events journaled before it. Cands holds every block's candidates in
// tracking order.
type refreshCheckpoint struct {
	Processed, Refreshes, BlockErrs, NextEvent int64
	Cands                                      [][]*candidate
}

// compactBase is the 'K' payload earlier versions' round compaction
// wrote: every journaled round, encoded columnarly per (block, observer)
// stream. Data is the delta-varint packing of the stream's records
// across all rounds; Cuts holds Rounds+1 record-index offsets, so round
// s owns records [Cuts[s], Cuts[s+1]). Round windows are not stored —
// they are derived from Config.roundWindow, the same rule that validated
// them at ingest.
type compactBase struct {
	Rounds int64
	Blocks []compactBlock
}

type compactBlock struct {
	Obs []compactStream
}

type compactStream struct {
	Data []byte
	Cuts []int64
}

// packRecords appends recs to the delta-varint packing in dst, deltas
// taken from prev, the previous timestamp (deltas may be negative; the
// dataset store's strictly-ordered codec is deliberately not reused here
// because WAL rounds carry raw observer output).
func packRecords(dst []byte, recs []probe.Record, prev int64) []byte {
	for _, r := range recs {
		dst = binary.AppendVarint(dst, r.T-prev)
		prev = r.T
		up := byte(0)
		if r.Up {
			up = 1
		}
		dst = append(dst, r.Addr, up)
	}
	return dst
}

// minPackedRecord is the fewest bytes a packed record takes: a one-byte
// delta, the address and the up byte.
const minPackedRecord = 3

// unpackRecords decodes n packed records from the front of data, deltas
// taken from prev, and returns them with the unread rest of data. n is
// checked against the bytes left before anything is allocated; zero
// records decode to nil.
func unpackRecords(data []byte, n, prev int64) ([]probe.Record, []byte, error) {
	if n < 0 || n > int64(len(data)/minPackedRecord) {
		return nil, nil, fmt.Errorf("stream: %d packed records cannot fit in %d bytes", n, len(data))
	}
	if n == 0 {
		return nil, data, nil
	}
	recs := make([]probe.Record, n)
	for i := range recs {
		if len(data) >= minPackedRecord && data[0] < 0x80 {
			// A one-byte delta, zig-zag encoded: most records.
			ux := int64(data[0])
			prev += ux>>1 ^ -(ux & 1)
			recs[i] = probe.Record{T: prev, Addr: data[1], Up: data[2] != 0}
			data = data[minPackedRecord:]
			continue
		}
		delta, k := binary.Varint(data)
		if k <= 0 || len(data) < k+2 {
			return nil, nil, fmt.Errorf("stream: packed record %d of %d truncated", i, n)
		}
		prev += delta
		recs[i] = probe.Record{T: prev, Addr: data[k], Up: data[k+1] != 0}
		data = data[k+2:]
	}
	return recs, data, nil
}

// encodeRoundFrame appends round r's frame payload to dst: the tag, then
// Seq, Start and End as varints; the block count and each block's
// observer count as uvarints; then every (block, observer) stream in
// order, as its record count and its records packed with deltas taken
// from Start.
func encodeRoundFrame(dst []byte, r *Round) []byte {
	dst = append(dst, frameRound)
	dst = binary.AppendVarint(dst, r.Seq)
	dst = binary.AppendVarint(dst, r.Start)
	dst = binary.AppendVarint(dst, r.End)
	dst = binary.AppendUvarint(dst, uint64(len(r.Blocks)))
	for _, perObs := range r.Blocks {
		dst = binary.AppendUvarint(dst, uint64(len(perObs)))
	}
	for _, perObs := range r.Blocks {
		for _, recs := range perObs {
			dst = binary.AppendUvarint(dst, uint64(len(recs)))
			dst = packRecords(dst, recs, r.Start)
		}
	}
	return dst
}

// unpackCount reads a uvarint count from the front of data that each
// counted item needs at least per bytes of the rest to hold.
func unpackCount(data []byte, per int) (int, []byte, error) {
	v, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, fmt.Errorf("stream: packed round count truncated")
	}
	data = data[k:]
	if v > uint64(len(data)/per) {
		return 0, nil, fmt.Errorf("stream: packed round counts %d items in %d bytes", v, len(data))
	}
	return int(v), data, nil
}

// unpackRound decodes what encodeRoundFrame wrote after the tag, which
// must hold nothing else.
// Every count is checked against the bytes left, so corrupt input fails
// rather than allocating past its own size.
func unpackRound(data []byte) (*Round, error) {
	var hdr [3]int64
	for i := range hdr {
		v, k := binary.Varint(data)
		if k <= 0 {
			return nil, fmt.Errorf("stream: packed round header truncated")
		}
		hdr[i], data = v, data[k:]
	}
	r := &Round{Seq: hdr[0], Start: hdr[1], End: hdr[2]}
	// Each block takes at least its observer count's byte, and each
	// stream its record count's.
	blocks, data, err := unpackCount(data, 1)
	if err != nil {
		return nil, err
	}
	obs := make([]int, blocks)
	streams := 0
	for b := range obs {
		if obs[b], data, err = unpackCount(data, 1); err != nil {
			return nil, err
		}
		if streams += obs[b]; streams > len(data) {
			return nil, fmt.Errorf("stream: packed round has %d streams in %d bytes", streams, len(data))
		}
	}
	r.Blocks = make([][][]probe.Record, blocks)
	for b := range r.Blocks {
		r.Blocks[b] = make([][]probe.Record, obs[b])
		for o := range r.Blocks[b] {
			var n int
			if n, data, err = unpackCount(data, minPackedRecord); err != nil {
				return nil, err
			}
			if r.Blocks[b][o], data, err = unpackRecords(data, int64(n), r.Start); err != nil {
				return nil, err
			}
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("stream: packed round has %d trailing bytes", len(data))
	}
	return r, nil
}

// expandCompactBase reconstructs the journaled rounds from a base
// payload, bit-identical to the originals. Its shape is checked before
// anything is allocated by it.
func expandCompactBase(cb *compactBase, cfg Config, blocks, obsCount int) ([]*Round, error) {
	if cb.Rounds < 0 || len(cb.Blocks) != blocks {
		return nil, fmt.Errorf("stream: compact base covers %d blocks over %d rounds, world has %d blocks", len(cb.Blocks), cb.Rounds, blocks)
	}
	for b := range cb.Blocks {
		if len(cb.Blocks[b].Obs) != obsCount {
			return nil, fmt.Errorf("stream: compact base block %d has %d observer streams, expected %d", b, len(cb.Blocks[b].Obs), obsCount)
		}
		for o, cs := range cb.Blocks[b].Obs {
			if int64(len(cs.Cuts)) != cb.Rounds+1 || cs.Cuts[0] != 0 {
				return nil, fmt.Errorf("stream: compact base block %d obs %d has %d cuts for %d rounds", b, o, len(cs.Cuts), cb.Rounds)
			}
		}
	}
	rounds := make([]*Round, cb.Rounds)
	for s := range rounds {
		start, end := cfg.roundWindow(int64(s))
		perBlock := make([][][]probe.Record, blocks)
		for b := range perBlock {
			perBlock[b] = make([][]probe.Record, obsCount)
		}
		rounds[s] = &Round{Seq: int64(s), Start: start, End: end, Blocks: perBlock}
	}
	for b := range cb.Blocks {
		for o, cs := range cb.Blocks[b].Obs {
			total := cs.Cuts[len(cs.Cuts)-1]
			all, rest, err := unpackRecords(cs.Data, total, 0)
			if err != nil {
				return nil, err
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("stream: compact base block %d obs %d has %d trailing bytes after %d records", b, o, len(rest), total)
			}
			for s := range rounds {
				lo, hi := cs.Cuts[s], cs.Cuts[s+1]
				if lo < 0 || hi < lo || hi > total {
					return nil, fmt.Errorf("stream: compact base block %d obs %d cuts not monotone at round %d", b, o, s)
				}
				rounds[s].Blocks[b][o] = all[lo:hi:hi]
			}
		}
	}
	return rounds, nil
}

// decodedFrame is one decoded stream frame: exactly one of Sig, Round,
// Event, Base, Ack, Refresh is set, per Tag. Round is set for both round
// frames, the packed 'D' and the gob 'R' earlier versions wrote.
type decodedFrame struct {
	Tag     byte
	Sig     []byte
	Round   *Round
	Event   *Event
	Base    *compactBase
	Ack     *eventsAck
	Refresh *refreshCheckpoint
}

// decodeStreamFrame decodes one stream-frame payload. It never panics on
// corrupt input (FuzzStreamFrameDecode holds it to that); errors mark the
// frame — and with it the rest of the file — as torn tail.
func decodeStreamFrame(payload []byte) (decodedFrame, error) {
	if len(payload) == 0 {
		return decodedFrame{}, fmt.Errorf("stream: empty frame payload")
	}
	df := decodedFrame{Tag: payload[0]}
	if df.Tag == frameRound {
		r, err := unpackRound(payload[1:])
		if err != nil {
			return decodedFrame{}, err
		}
		df.Round = r
		return df, nil
	}
	dec := gob.NewDecoder(bytes.NewReader(payload[1:]))
	switch df.Tag {
	case frameStreamHeader:
		var h streamHeader
		if err := dec.Decode(&h); err != nil {
			return decodedFrame{}, err
		}
		df.Sig = h.Signature
	case frameGobRound:
		var r Round
		if err := dec.Decode(&r); err != nil {
			return decodedFrame{}, err
		}
		df.Round = &r
	case frameEvent:
		var e Event
		if err := dec.Decode(&e); err != nil {
			return decodedFrame{}, err
		}
		df.Event = &e
	case frameCompactRounds:
		var cb compactBase
		if err := dec.Decode(&cb); err != nil {
			return decodedFrame{}, err
		}
		df.Base = &cb
	case frameEventsAck:
		var a eventsAck
		if err := dec.Decode(&a); err != nil {
			return decodedFrame{}, err
		}
		df.Ack = &a
	case frameRefresh:
		var c refreshCheckpoint
		if err := dec.Decode(&c); err != nil {
			return decodedFrame{}, err
		}
		df.Refresh = &c
	default:
		return decodedFrame{}, fmt.Errorf("stream: unknown frame tag %q", df.Tag)
	}
	return df, nil
}

// encodeStreamFrame encodes one tagged gob payload (without the CRC
// envelope). Rounds are not gob: encodeRoundFrame packs them.
func encodeStreamFrame(tag byte, v interface{}) ([]byte, error) {
	var payload bytes.Buffer
	payload.WriteByte(tag)
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil, fmt.Errorf("stream: encoding %q frame: %w", tag, err)
	}
	return payload.Bytes(), nil
}

// decoded adapts a decoded-frame handler to a journal frame callback: a
// payload that does not decode starts a torn tail.
func decoded(fn func(decodedFrame) error) func([]byte) error {
	return func(payload []byte) error {
		df, err := decodeStreamFrame(payload)
		if err != nil {
			return journal.Torn(err)
		}
		return fn(df)
	}
}

// runSignature is what a daemon's segments are signed with:
// core.RunSignature of the analysis config and world, then the schedule
// replay derives events under (round length, refresh cadence and
// confirmation depth, defaults applied). A WAL reopened under another
// schedule would replay into other events, so it is refused as another
// run's rather than reported inconsistent.
func runSignature(cfg Config, world []*dataset.WorldBlock) []byte {
	h := sha256.New()
	h.Write(core.RunSignature(cfg.Core, world))
	_ = binary.Write(h, binary.LittleEndian, [3]int64{cfg.RoundLen, int64(cfg.RefreshEvery), int64(cfg.ConfirmRefreshes)})
	return h.Sum(nil)
}

// roundCodec names the round journal's frame codec. It is hashed into
// the signature of every round segment (roundSignature), which may hold
// packed round frames.
const roundCodec = "stream rounds: packed round frames, version 2"

// roundSignature is what the round journal's segments are signed with:
// the run signature sig hashed with roundCodec. A binary that predates
// the codec reads it as another run's signature and refuses the
// directory.
func roundSignature(sig []byte) []byte {
	h := sha256.New()
	h.Write(sig)
	h.Write([]byte(roundCodec))
	return h.Sum(nil)
}

// segmentHeader is the header of every journal segment: an 'S' frame
// carrying the signature sig, checked when a segment is reopened. When
// legacy is set, a segment signed with it instead is accepted too, and
// onCheck, when set, learns of every accepted segment whether it was.
func segmentHeader(sig, legacy []byte, onCheck func(legacy bool)) (journal.Header, error) {
	payload, err := encodeStreamFrame(frameStreamHeader, streamHeader{Signature: sig})
	if err != nil {
		return journal.Header{}, err
	}
	return journal.Header{Payload: payload, Check: decoded(func(df decodedFrame) error {
		if df.Tag != frameStreamHeader {
			return fmt.Errorf("segment does not start with a signature header")
		}
		switch {
		case bytes.Equal(df.Sig, sig):
		case legacy != nil && bytes.Equal(df.Sig, legacy):
		default:
			return fmt.Errorf("segment belongs to a different run (config, world or schedule changed); delete the stream directory to start over")
		}
		if onCheck != nil {
			onCheck(!bytes.Equal(df.Sig, sig))
		}
		return nil
	})}, nil
}

// appendFrame journals one tagged gob payload; it is for every frame but
// rounds, which Daemon.Ingest packs.
func appendFrame(l *journal.Log, tag byte, v interface{}) error {
	payload, err := encodeStreamFrame(tag, v)
	if err != nil {
		return err
	}
	return l.Append(payload)
}
