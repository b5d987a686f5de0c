package dataset

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"runtime"
	"testing"

	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// encodedStream returns a realistic encoded log plus its decoded records.
func encodedStream(t *testing.T) ([]byte, []probe.Record) {
	t.Helper()
	blk, err := netsim.NewBlock(77, 88, netsim.Spec{Workers: 40, Homes: 10, AlwaysOn: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := &probe.Engine{Observers: probe.StandardObservers(1), QuarterSeed: 3}
	perObs, err := eng.Collect(blk, start2020, start2020+2*netsim.SecondsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, perObs[0]); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), perObs[0]
}

// TestDecodeRecordsBytesParity checks the zero-copy decoder produces
// exactly what the streaming reader produces, on real streams and on the
// empty log.
func TestDecodeRecordsBytesParity(t *testing.T) {
	data, want := encodedStream(t)
	got, err := DecodeRecordsBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	var empty bytes.Buffer
	if err := WriteRecords(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeRecordsBytes(empty.Bytes()); err != nil || len(got) != 0 {
		t.Fatalf("empty log: %d records, err %v", len(got), err)
	}
}

// TestDecodeRecordsBytesCorruption checks every corruption class the
// streaming reader rejects is rejected identically by the in-memory
// decoder, all wrapping ErrCorruptLog.
func TestDecodeRecordsBytesCorruption(t *testing.T) {
	data, _ := encodedStream(t)
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(d []byte) []byte { return nil }},
		{"bad magic", func(d []byte) []byte {
			d = append([]byte(nil), d...)
			d[0] ^= 0xff
			return d
		}},
		{"truncated mid-record", func(d []byte) []byte { return d[: len(d)/2 : len(d)/2] }},
		{"truncated checksum", func(d []byte) []byte { return d[: len(d)-2 : len(d)-2] }},
		{"flipped payload bit", func(d []byte) []byte {
			d = append([]byte(nil), d...)
			d[len(d)/2] ^= 0x01
			return d
		}},
		{"trailing bytes", func(d []byte) []byte {
			return append(append([]byte(nil), d...), 0xaa, 0xbb)
		}},
	}
	for _, tc := range cases {
		mutated := tc.mut(data)
		if _, err := DecodeRecordsBytes(mutated); !errors.Is(err, ErrCorruptLog) {
			t.Errorf("%s: err = %v, want ErrCorruptLog", tc.name, err)
		}
		// The streaming reader must agree the bytes are bad.
		if _, err := ReadRecords(bytes.NewReader(mutated)); !errors.Is(err, ErrCorruptLog) {
			t.Errorf("%s: streaming reader err = %v, want ErrCorruptLog", tc.name, err)
		}
	}
}

// TestAppendRecordsBytesClipping checks the clipped decode equals a
// decode-then-filter, and that it appends into the caller's buffer.
func TestAppendRecordsBytesClipping(t *testing.T) {
	data, all := encodedStream(t)
	lo := start2020 + 6*3600
	hi := start2020 + 30*3600
	var want []probe.Record
	for _, r := range all {
		if r.T >= lo && r.T < hi {
			want = append(want, r)
		}
	}
	if len(want) == 0 || len(want) == len(all) {
		t.Fatalf("bad window: %d of %d records", len(want), len(all))
	}
	buf := make([]probe.Record, 0, 4)
	got, err := AppendRecordsBytes(buf[:0], data, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("clipped to %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Reuse: decoding a second window into the same buffer must not keep
	// stale entries.
	got2, err := AppendRecordsBytes(got[:0], data, start2020, lo)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got2 {
		if r.T >= lo {
			t.Fatalf("stale or unclipped record %+v", r)
		}
	}
}

// replayStore creates a small on-disk store for replay/leak tests.
func replayStore(t *testing.T, dir string) (*Store, []*WorldBlock, Spec) {
	t.Helper()
	spec := Spec{Name: "mmap-test", Start: start2020, Weeks: 1, Sites: []string{"e", "j"}}
	world, err := BuildWorld(WorldOpts{
		Blocks: 6, Seed: 31, Start: spec.Start, End: spec.End(),
		OutageProb: -1, RenumberProb: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := EngineFor(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := CreateStore(dir, spec, eng, world)
	if err != nil {
		t.Fatal(err)
	}
	return store, world, spec
}

// TestReplayCollectZeroCopyParity checks the mmap-backed CollectInto
// matches a fresh engine collection clipped to a sub-window.
func TestReplayCollectZeroCopyParity(t *testing.T) {
	store, world, spec := replayStore(t, t.TempDir())
	replay, err := store.Replay()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := EngineFor(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, _, blocks, err := store.Index()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[netsim.BlockID]*WorldBlock{}
	for _, wb := range world {
		byID[wb.ID] = wb
	}
	lo := spec.Start + netsim.SecondsPerDay
	hi := spec.End() - netsim.SecondsPerDay
	var bufs [][]probe.Record
	for _, id := range blocks {
		wb := byID[id]
		bufs, err = replay.CollectInto(context.Background(), wb.Block, lo, hi, bufs)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := eng.Collect(wb.Block, spec.Start, spec.End())
		if err != nil {
			t.Fatal(err)
		}
		for oi := range fresh {
			var want []probe.Record
			for _, r := range fresh[oi] {
				if r.T >= lo && r.T < hi {
					want = append(want, r)
				}
			}
			if len(bufs[oi]) != len(want) {
				t.Fatalf("block %v obs %d: %d records, want %d", id, oi, len(bufs[oi]), len(want))
			}
			for i := range want {
				if bufs[oi][i] != want[i] {
					t.Fatalf("block %v obs %d record %d differs", id, oi, i)
				}
			}
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// The store stays usable after Close: reads re-map on demand.
	if _, _, err := store.LoadBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

func countMaps(t *testing.T) int {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte("\n"))
}

// TestStoreCloseNoLeak opens, scans, and closes the same store 1000
// times; on Linux the process fd count and mapping count must stay flat.
// A forgotten munmap or leaked fd turns this into a monotonic climb of
// ~2000 entries, far beyond the slack.
func TestStoreCloseNoLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-iteration leak scan skipped in -short mode")
	}
	dir := t.TempDir()
	_, world, _ := replayStore(t, dir)

	checkProc := runtime.GOOS == "linux"
	var fd0, maps0 int
	if checkProc {
		fd0, maps0 = countFDs(t), countMaps(t)
	}
	var bufs [][]probe.Record
	for i := 0; i < 1000; i++ {
		store, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := store.Replay()
		if err != nil {
			t.Fatal(err)
		}
		bufs, err = replay.CollectInto(context.Background(), world[0].Block,
			start2020, start2020+netsim.SecondsPerDay, bufs)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if checkProc {
		// Slack absorbs runtime noise (goroutine stacks, heap arenas); a
		// real leak of 1000 iterations x 2 logs dwarfs it.
		const slack = 50
		if fd1 := countFDs(t); fd1 > fd0+slack {
			t.Errorf("fd count climbed %d -> %d", fd0, fd1)
		}
		if maps1 := countMaps(t); maps1 > maps0+slack {
			t.Errorf("mapping count climbed %d -> %d", maps0, maps1)
		}
	}
}

// TestDecodeImplausibleCountAllocatesLittle is the regression test for a
// log whose header claims 2^30 records and then ends: the count is read
// before any checksum, and reserving for it (16 GiB) killed the process —
// fsck included — instead of reporting a corrupt log.
func TestDecodeImplausibleCountAllocatesLittle(t *testing.T) {
	crafted := binary.AppendUvarint([]byte(logMagic), 1<<30)
	crafted = binary.AppendVarint(crafted, 0)
	decoders := map[string]func() error{
		"DecodeRecordsBytes": func() error { _, err := DecodeRecordsBytes(crafted); return err },
		"AppendRecordsBytes": func() error { _, err := AppendRecordsBytes(nil, crafted, 0, 1<<40); return err },
		"ReadRecords":        func() error { _, err := ReadRecords(bytes.NewReader(crafted)); return err },
	}
	for name, decode := range decoders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptLog) {
			t.Errorf("%s: err = %v, want ErrCorruptLog", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes decoding a %d-byte log, want < 1 MiB", name, got, len(crafted))
		}
	}
}

// DecodeRecordsBytes decodes a whole observation log held in memory:
// AppendRecordsBytes over a window that clips nothing.
func DecodeRecordsBytes(data []byte) ([]probe.Record, error) {
	return AppendRecordsBytes(nil, data, math.MinInt64, math.MaxInt64)
}
