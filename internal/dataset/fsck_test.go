package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// buildTestStore archives a small deterministic world and returns the
// store with the IDs of its archived blocks.
func buildTestStore(t *testing.T) (*Store, string, []netsim.BlockID) {
	t.Helper()
	dir := t.TempDir()
	spec := Spec{Name: "fsck-2020w1", Start: start2020, Weeks: 1, Sites: []string{"e", "j"}}
	world, err := BuildWorld(WorldOpts{
		Blocks: 8, Seed: 91, Start: spec.Start, End: spec.End(),
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
	_, _, _, _, blocks, err := store.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 2 {
		t.Fatalf("test store too small: %d blocks", len(blocks))
	}
	return store, dir, blocks
}

// TestVerifyCorruptionMatrix is the fsck acceptance test: every corruption
// flavor — a flipped bit, a truncated log, a duplicate-appended log, and a
// duplicated index entry — must be detected by Verify, attributed to the
// right block, and must not fail the open. 100% detection is the bar.
func TestVerifyCorruptionMatrix(t *testing.T) {
	corruptions := []struct {
		name   string
		mangle func(t *testing.T, path string)
	}{
		{name: "bit-flip", mangle: func(t *testing.T, path string) {
			data := readLog(t, path)
			data[len(data)/3] ^= 0x01
			writeLog(t, path, data)
		}},
		{name: "truncation", mangle: func(t *testing.T, path string) {
			data := readLog(t, path)
			writeLog(t, path, data[:len(data)*2/3])
		}},
		{name: "duplicate-append", mangle: func(t *testing.T, path string) {
			// A crashed archiver replaying its buffer appends a second
			// complete log after the first one's trailer.
			data := readLog(t, path)
			writeLog(t, path, append(data, data...))
		}},
		{name: "missing-log", mangle: func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			store, dir, blocks := buildTestStore(t)
			pre, err := store.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if !pre.Clean() {
				t.Fatalf("fresh store not clean:\n%s", pre)
			}
			victim := blocks[1]
			tc.mangle(t, filepath.Join(dir, logName(victim, 0)))
			rep, err := store.Verify()
			if err != nil {
				t.Fatalf("corruption must be a per-block fault, not an open error: %v", err)
			}
			if rep.Clean() {
				t.Fatalf("%s undetected", tc.name)
			}
			bad := rep.BadBlocks()
			if len(bad) != 1 || bad[0] != victim {
				t.Fatalf("quarantined %v, want exactly [%v]", bad, victim)
			}
			if rep.OK != rep.Logs-1 {
				t.Fatalf("collateral damage: %d of %d logs ok with one corrupt", rep.OK, rep.Logs)
			}
			// The damaged block must fail loudly on load; its neighbors
			// must stay readable.
			if _, _, err := store.LoadBlock(victim); err == nil {
				t.Fatalf("%s loaded cleanly", tc.name)
			}
			if _, _, err := store.LoadBlock(blocks[0]); err != nil {
				t.Fatalf("healthy block unreadable after neighbor corruption: %v", err)
			}
			if !strings.Contains(rep.String(), "damaged") {
				t.Fatalf("report does not render damage:\n%s", rep)
			}
		})
	}
}

// TestVerifyReportsAllFaultsInOnePass plants several duplicated
// observations in one log — each with a freshly valid trailer, so only
// the semantic scan can see them — and requires a single Verify pass to
// report every one of them, not just the first.
func TestVerifyReportsAllFaultsInOnePass(t *testing.T) {
	store, dir, blocks := buildTestStore(t)
	victim := blocks[1]
	path := filepath.Join(dir, logName(victim, 0))
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	records, err := ReadRecords(bufio.NewReader(f))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 2 {
		t.Fatalf("victim log too small to mangle: %d records", len(records))
	}
	// Duplicate the first two records in place: r0 r0 r1 r1 rest...
	mangled := []probe.Record{records[0], records[0], records[1], records[1]}
	mangled = append(mangled, records[2:]...)
	var buf strings.Builder
	if err := WriteRecords(&buf, mangled); err != nil {
		t.Fatal(err)
	}
	writeLog(t, path, []byte(buf.String()))

	rep, err := store.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Faults) != 2 {
		t.Fatalf("one pass found %d faults, want both duplicates:\n%s", len(rep.Faults), rep)
	}
	for _, fa := range rep.Faults {
		if fa.ID != victim || fa.Obs != 0 {
			t.Fatalf("fault misattributed to block %v obs %d", fa.ID, fa.Obs)
		}
		if !errors.Is(fa.Err, ErrCorruptLog) {
			t.Fatalf("semantic fault must classify as ErrCorruptLog, got %v", fa.Err)
		}
	}
	if rep.OK != rep.Logs-1 {
		t.Fatalf("two faults in one log must cost one OK log, not %d of %d", rep.OK, rep.Logs)
	}
	if bad := rep.BadBlocks(); len(bad) != 1 || bad[0] != victim {
		t.Fatalf("quarantined %v, want exactly [%v]", bad, victim)
	}
}

func TestVerifyDetectsDuplicateIndexEntry(t *testing.T) {
	store, dir, blocks := buildTestStore(t)
	data, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the first block's manifest entry — a crashed archiver that
	// re-appended its tail.
	entry := fmt.Sprintf(`{"id":%d,"ever_active":[0]},`, uint32(blocks[0]))
	mutated := strings.Replace(string(data), `"blocks": [`, `"blocks": [`+entry, 1)
	if mutated == string(data) {
		t.Fatal("index mutation failed")
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := store.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.DuplicateIndex) != 1 || rep.DuplicateIndex[0] != blocks[0] {
		t.Fatalf("duplicate index entry undetected: %+v", rep)
	}
}

func TestOpenStoreTypedError(t *testing.T) {
	_, err := OpenStore(t.TempDir())
	if !errors.Is(err, ErrNotStore) {
		t.Fatalf("opening an empty dir must classify as ErrNotStore, got %v", err)
	}
	_, err = OpenStore(filepath.Join(t.TempDir(), "does-not-exist"))
	if !errors.Is(err, ErrNotStore) {
		t.Fatalf("opening a missing dir must classify as ErrNotStore, got %v", err)
	}
}

func TestCorruptLogClassifiesWithErrorsIs(t *testing.T) {
	store, dir, blocks := buildTestStore(t)
	path := filepath.Join(dir, logName(blocks[0], 0))
	data := readLog(t, path)
	data[len(data)/2] ^= 0x80
	writeLog(t, path, data)
	_, _, err := store.LoadBlock(blocks[0])
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("corrupt log must classify as ErrCorruptLog, got %v", err)
	}
}

func TestCreateStoreLeavesNoTempFiles(t *testing.T) {
	_, dir, _ := buildTestStore(t)
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

func readLog(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeLog(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// BadBlocks returns the distinct block IDs with at least one damaged log
// — the quarantine set a replay run must skip or re-probe.
func (r *VerifyReport) BadBlocks() []netsim.BlockID {
	seen := map[netsim.BlockID]bool{}
	var out []netsim.BlockID
	for _, f := range r.Faults {
		if !seen[f.ID] {
			seen[f.ID] = true
			out = append(out, f.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
