package stream

// FuzzStreamFrameDecode holds the stream WAL's open path to the same
// contract as the checkpoint journal's: arbitrary bytes on disk may fail
// to replay, but they must never panic, and whatever opens must be usable.

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/journal"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/storage"
)

// openFuzzLog opens the journal name in dir the way the daemon opens its
// own, bound to the fuzz signature.
func openFuzzLog(dir, name string) (*journal.Log, error) {
	hdr, err := segmentHeader([]byte("fuzz-sig"), nil, nil)
	if err != nil {
		return nil, err
	}
	return journal.OpenLog(storage.OS, dir, name, hdr, 0, decoded(func(decodedFrame) error { return nil }))
}

// fuzzRound is a two-block round: one stream with a record before the
// round's start, one empty.
func fuzzRound() *Round {
	return &Round{
		Seq: 0, Start: 0, End: 86400,
		Blocks: [][][]probe.Record{{{{T: 60, Addr: 3, Up: true}, {T: -120, Addr: 4}}}, {nil}},
	}
}

// fuzzWALBytes builds a small valid WAL (header, one packed round, one
// event, one refresh checkpoint) to seed the corpus with real frame
// bytes.
func fuzzWALBytes(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	w, err := openFuzzLog(dir, "seed")
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Append(encodeRoundFrame(nil, fuzzRound())); err != nil {
		f.Fatal(err)
	}
	ev := Event{Seq: 0, ID: netsim.BlockID(7), Change: core.Change{Point: 86400, Dir: 1}}
	if err := appendFrame(w, frameEvent, ev); err != nil {
		f.Fatal(err)
	}
	if err := appendFrame(w, frameRefresh, fuzzCheckpoint()); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(true); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "seed-00000001.wal"))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// fuzzCheckpoint is a refresh checkpoint over two blocks, one of them
// tracking an emitted candidate.
func fuzzCheckpoint() *refreshCheckpoint {
	cand := &candidate{Change: core.Change{Point: 86400, Dir: 1}, FirstSeenSeq: 1, SeenStreak: 2, LastRefresh: 2, EligibleSeq: 2, Emitted: true}
	return &refreshCheckpoint{Processed: 3, Refreshes: 2, NextEvent: 1, Cands: [][]*candidate{{cand}, nil}}
}

func FuzzStreamFrameDecode(f *testing.F) {
	seed := fuzzWALBytes(f)
	f.Add(seed)
	ckpt, err := encodeStreamFrame(frameRefresh, fuzzCheckpoint())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt)
	// Every round decoder: the packed frame written today, and the gob
	// frame and the 'K' base earlier versions wrote, encoded here with
	// gob directly.
	f.Add(encodeRoundFrame(nil, fuzzRound()))
	r := fuzzRound()
	base := compactBase{Rounds: 1, Blocks: make([]compactBlock, len(r.Blocks))}
	for b, perObs := range r.Blocks {
		for _, recs := range perObs {
			cs := compactStream{Data: packRecords(nil, recs, 0), Cuts: []int64{0, int64(len(recs))}}
			base.Blocks[b].Obs = append(base.Blocks[b].Obs, cs)
		}
	}
	for _, legacy := range []struct {
		tag byte
		v   any
	}{{frameGobRound, r}, {frameCompactRounds, base}} {
		var payload bytes.Buffer
		payload.WriteByte(legacy.tag)
		if err := gob.NewEncoder(&payload).Encode(legacy.v); err != nil {
			f.Fatal(err)
		}
		if _, err := decodeStreamFrame(payload.Bytes()); err != nil {
			f.Fatalf("the %q seed does not decode: %v", legacy.tag, err)
		}
		f.Add(payload.Bytes())
	}
	f.Add([]byte{frameRound, 0, 0, 0, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{'S'})
	f.Add([]byte{'R', 0xff})
	f.Add([]byte{16, 0, 0, 0, 'E', 1, 2, 3})
	if len(seed) > 8 {
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-3])
		flipped := append([]byte(nil), seed...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Layer 1: the frame decoder on a raw payload — errors fine,
		// panics not.
		_, _ = decodeStreamFrame(data)

		// Layer 2: the full WAL open — manifest, replay, signature check,
		// torn-tail truncation — over the bytes as the journal's one
		// manifest-listed segment.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz-00000001.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "fuzz.wal.manifest"), []byte(`{"segments":["fuzz-00000001.wal"]}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := openFuzzLog(dir, "fuzz")
		if err != nil {
			return
		}
		// A WAL that opened must append and close cleanly.
		if err := appendFrame(w, frameEvent, Event{}); err != nil {
			t.Fatalf("append to opened WAL: %v", err)
		}
		if err := w.Close(false); err != nil {
			t.Fatalf("closing opened WAL: %v", err)
		}
	})
}
