package journal

// Deterministic unit tests for the segmented log: replay across
// rotation boundaries, torn-tail tolerance only in the newest segment,
// compaction to a single base segment, and the manifest-swap ambiguity
// rule — a swap whose rename may have landed poisons the log instead
// of deleting a segment the on-disk manifest might reference.

import (
	"bytes"
	"encoding/json"
	"fmt"
	gofs "io/fs"
	"os"
	"path/filepath"
	"testing"

	"github.com/diurnalnet/diurnal/internal/storage"
)

// walEvent builds a distinguishable payload for journal round-trips.
func walEvent(i int) string {
	return fmt.Sprintf("event seq=%d block=%d first-seen=%d emit=%d", i, i%7, i+1, i+2)
}

// testHeader binds the test logs to one signature.
var testHeader = Header{
	Payload: []byte("S wal-test-sig"),
	Check: func(p []byte) error {
		if !bytes.Equal(p, []byte("S wal-test-sig")) {
			return fmt.Errorf("segment belongs to a different run")
		}
		return nil
	},
}

// collectEvents opens the journal and returns the replayed event frames.
func collectEvents(t *testing.T, dir string, segBytes int64) (*Log, []string) {
	t.Helper()
	var got []string
	w, err := OpenLog(storage.OS, dir, "j", testHeader, segBytes, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, got
}

func TestWALRotationReplay(t *testing.T) {
	dir := t.TempDir()
	w, _ := collectEvents(t, dir, 256)
	const n = 40
	for i := 0; i < n; i++ {
		if err := w.Append([]byte(walEvent(i))); err != nil {
			t.Fatal(err)
		}
	}
	if w.rotations == 0 {
		t.Fatal("256-byte segments never rotated")
	}
	if err := w.Close(true); err != nil {
		t.Fatal(err)
	}

	w2, got := collectEvents(t, dir, 256)
	defer w2.Close(false)
	if len(got) != n {
		t.Fatalf("replayed %d events across segments, want %d", len(got), n)
	}
	for i, ev := range got {
		if ev != walEvent(i) {
			t.Fatalf("event %d diverged across the rotation boundary: %+v", i, ev)
		}
	}
	if len(w2.segs) < 2 {
		t.Errorf("manifest lists %d segments, want the rotated set", len(w2.segs))
	}
}

// TestLogRotateUnderNewHeader: an owner whose header changed rotates
// before appending, so the frames after the rotation land in a segment
// that opens with the new header while the sealed one keeps the old, and
// a reopen replays both in order.
func TestLogRotateUnderNewHeader(t *testing.T) {
	dir := t.TempDir()
	w, _ := collectEvents(t, dir, 0)
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(walEvent(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(true); err != nil {
		t.Fatal(err)
	}
	newHeader := Header{Payload: []byte("S wal-test-sig v2"), Check: func(p []byte) error {
		if !bytes.Equal(p, []byte("S wal-test-sig v2")) {
			return testHeader.Check(p)
		}
		return nil
	}}
	open := func() (*Log, []string) {
		var got []string
		l, err := OpenLog(storage.OS, dir, "j", newHeader, 0, func(p []byte) error {
			got = append(got, string(p))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return l, got
	}
	w, _ = open()
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		if err := w.Append([]byte(walEvent(i))); err != nil {
			t.Fatal(err)
		}
	}
	if u := w.Usage(); u.Segments != 2 || u.Rotations != 1 {
		t.Fatalf("after a rotation the log has %d segments and %d rotations, want 2 and 1", u.Segments, u.Rotations)
	}
	if err := w.Close(true); err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		hdr    []byte
		frames int
	}{{testHeader.Payload, 3}, {newHeader.Payload, 2}} {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("j-%08d.wal", i+1)))
		if err != nil {
			t.Fatal(err)
		}
		frames := Frames(data)
		if len(frames) != 1+want.frames || !bytes.Equal(frames[0].Payload, want.hdr) {
			t.Fatalf("segment %d holds %d frames under header %q, want %d under %q", i+1, len(frames)-1, frames[0].Payload, want.frames, want.hdr)
		}
	}
	w, got := open()
	defer w.Close(false)
	if len(got) != 5 {
		t.Fatalf("reopen replayed %d events, want 5", len(got))
	}
	for i, ev := range got {
		if ev != walEvent(i) {
			t.Fatalf("event %d diverged across the rotation: %q", i, ev)
		}
	}
}

// TestWALTornTail: garbage after the last intact frame of the NEWEST
// segment is truncated on open (a torn final append); the same damage
// mid-journal is corruption and must refuse to open.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, _ := collectEvents(t, dir, 256)
	for i := 0; i < 20; i++ {
		if err := w.Append([]byte(walEvent(i))); err != nil {
			t.Fatal(err)
		}
	}
	segs := append([]string(nil), w.segs...)
	if err := w.Close(true); err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need a rotated journal, got %d segments", len(segs))
	}

	tail := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(tail, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w2, got := collectEvents(t, dir, 256)
	if len(got) != 20 {
		t.Fatalf("torn tail replayed %d events, want all 20", len(got))
	}
	if err := w2.Append([]byte(walEvent(20))); err != nil {
		t.Fatalf("append after torn-tail truncation: %v", err)
	}
	if err := w2.Close(true); err != nil {
		t.Fatal(err)
	}

	// Now tear a sealed, mid-journal segment: silent loss there is
	// corruption, never a crash artifact.
	mid := filepath.Join(dir, segs[0])
	info, err := os.Stat(mid)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(mid, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(storage.OS, dir, "j", testHeader, 256, func([]byte) error { return nil }); err == nil {
		t.Fatal("mid-journal tear opened cleanly")
	}
}

func TestWALCompactToBase(t *testing.T) {
	dir := t.TempDir()
	w, _ := collectEvents(t, dir, 256)
	for i := 0; i < 20; i++ {
		if err := w.Append([]byte(walEvent(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Compact([]byte(walEvent(99))); err != nil {
		t.Fatal(err)
	}
	if len(w.segs) != 1 {
		t.Fatalf("compacted journal lists %d segments", len(w.segs))
	}
	if err := w.Close(true); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, e := range ents {
		if e.Type().IsRegular() {
			files++
		}
	}
	if files != 2 { // base segment + manifest
		t.Errorf("compaction left %d files, want base + manifest: %v", files, ents)
	}
	w2, got := collectEvents(t, dir, 256)
	defer w2.Close(false)
	if len(got) != 1 || got[0] != walEvent(99) {
		t.Fatalf("base segment replayed %v, want only the compact payload", got)
	}
}

// ambiguousSwapFS makes the manifest swap ambiguous: the rename lands,
// then the directory fsync fails — the exact window where the on-disk
// manifest already references a segment the in-memory state does not.
type ambiguousSwapFS struct {
	storage.FS
	armed bool
}

func (a *ambiguousSwapFS) Rename(oldpath, newpath string) error {
	err := a.FS.Rename(oldpath, newpath)
	if err == nil {
		a.armed = true
	}
	return err
}

func (a *ambiguousSwapFS) SyncDir(dir string) error {
	if a.armed {
		a.armed = false
		return fmt.Errorf("injected: dir fsync lost after rename")
	}
	return a.FS.SyncDir(dir)
}

func (a *ambiguousSwapFS) OpenFile(name string, flag int, perm gofs.FileMode) (storage.File, error) {
	return a.FS.OpenFile(name, flag, perm)
}

// TestWALAmbiguousManifestSwapPoisons is the regression test for the
// swap-then-delete hole: when the manifest rename lands but its
// directory fsync fails, the journal must keep the new segment (the
// on-disk manifest references it), refuse further appends, and reopen
// cleanly with every acked frame.
func TestWALAmbiguousManifestSwapPoisons(t *testing.T) {
	dir := t.TempDir()
	w, _ := collectEvents(t, dir, 256)
	acked := 0
	for w.rotations == 0 { // fill the first segment up to the threshold
		if err := w.Append([]byte(walEvent(acked))); err != nil {
			t.Fatal(err)
		}
		acked++
	}
	w.Close(true)

	var replayed int
	w2, err := openWALWith(&ambiguousSwapFS{FS: storage.OS}, dir, &replayed)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != acked {
		t.Fatalf("reopen replayed %d events, want %d", replayed, acked)
	}
	// Append until the next rotation is attempted; its manifest swap hits
	// the armed fault.
	var ferr error
	extra := 0
	for i := 0; i < 64; i++ {
		if ferr = w2.Append([]byte(walEvent(acked + extra))); ferr != nil {
			break
		}
		extra++
	}
	if ferr == nil {
		t.Fatal("the ambiguous swap never fired")
	}
	if w2.tail.failed == nil {
		t.Fatalf("ambiguous swap did not poison the journal: %v", ferr)
	}
	if err := w2.Append([]byte(walEvent(0))); err == nil {
		t.Fatal("poisoned journal admitted an append")
	}
	w2.Close(false)

	// Whatever the on-disk manifest says, every segment it lists must
	// exist, and a clean reopen must recover every acked frame.
	data, err := os.ReadFile(filepath.Join(dir, "j.wal.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, seg := range m.Segments {
		if _, err := os.Stat(filepath.Join(dir, seg)); err != nil {
			t.Fatalf("manifest references missing segment %s: %v", seg, err)
		}
	}
	w3, got := collectEvents(t, dir, 256)
	defer w3.Close(false)
	if len(got) != acked+extra {
		t.Fatalf("recovered %d events after the poisoned swap, want %d", len(got), acked+extra)
	}
	for i, ev := range got {
		if ev != walEvent(i) {
			t.Fatalf("recovered event %d diverged: %+v", i, ev)
		}
	}
}

// openWALWith opens the test journal through fsys, counting replayed
// event frames into *n.
func openWALWith(fsys storage.FS, dir string, n *int) (*Log, error) {
	return OpenLog(fsys, dir, "j", testHeader, 256, func([]byte) error {
		*n++
		return nil
	})
}
