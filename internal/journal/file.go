package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/diurnalnet/diurnal/internal/storage"
)

var errTorn = errors.New("journal: frame does not decode")

// Torn marks an error a Log's scan callback returns for a payload that
// does not decode: that frame starts a torn tail, to be cut off. Any error
// not marked is fatal — the frame checksummed yet cannot belong where it
// is, so the file is from a different or corrupted run — and fails the
// open.
func Torn(err error) error { return fmt.Errorf("%w: %w", errTorn, err) }

// Header is how the segments of a log open. Payload is written as the
// first frame of every fresh segment; Check accepts or rejects the first
// frame of an existing one, so a segment from a different run is refused
// instead of replayed.
type Header struct {
	Payload []byte
	Check   func(payload []byte) error
}

// scan walks data's frames, the first through hdr.Check (when set) and
// every other through fn. It returns the offset just past the last
// intact frame and the first fatal error either callback returned.
func scan(data []byte, hdr Header, fn func([]byte) error) (good int, err error) {
	next := fn
	if hdr.Check != nil {
		next = hdr.Check
	}
	good = Walk(data, func(payload []byte) error {
		cb := next
		next = fn
		cerr := cb(payload)
		if cerr != nil && !errors.Is(cerr, errTorn) {
			err = cerr
		}
		return cerr
	})
	return good, err
}

// File is one framed file open for append. It is not safe for
// concurrent use; its owner serializes access.
type File struct {
	path string
	f    storage.File
	size int64
	// failed, once set, poisons the file (see the package comment).
	failed error
}

// Open opens (or creates) the framed file at path. It hands fn the
// file's whole frames (see Frames) and takes back how many of them, from
// the first, fn accepted; fn checks their CRCs itself (Frame.Intact), so
// it may check and decode them on several goroutines. Everything past
// the last accepted frame — the torn or corrupt tail a crash mid-append
// leaves — is truncated, so appends start clean. Temp files beside path
// are removed first: a directory an older build wrote, which rewrote
// files in place, may hold one a kill left mid-rewrite.
func Open(fsys storage.FS, path string, fn func(frames []Frame) (accepted int)) (*File, error) {
	prefix := filepath.Base(path) + ".tmp"
	// Best-effort: a temp file never holds anything acknowledged.
	_ = sweep(fsys, filepath.Dir(path), func(name string) bool { return strings.HasPrefix(name, prefix) })
	data, err := fsys.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	frames := Frames(data)
	good := 0
	if n := fn(frames); n > 0 {
		good = frames[n-1].End
	}
	return reopen(fsys, path, good)
}

// reopen opens path for append at offset good, cutting off whatever
// follows it.
func reopen(fsys storage.FS, path string, good int) (*File, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	jf := &File{path: path, f: f, size: int64(good)}
	if err := jf.cut(); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: truncating the torn tail of %s: %w", path, err)
	}
	return jf, nil
}

// cut truncates the file to its last intact frame and moves the write
// offset there.
func (f *File) cut() error {
	if err := f.f.Truncate(f.size); err != nil {
		return err
	}
	_, err := f.f.Seek(f.size, io.SeekStart)
	return err
}

// Append writes whole frames with a single write(); they are durable
// across process death once it returns (Close syncs them for power
// loss). A failed or short write is rolled back to the last frame
// boundary, so the file never keeps a torn frame that would cut off
// every later frame at the next open; a file that cannot be rolled back
// is poisoned.
func (f *File) Append(frames []byte) error {
	if f.failed != nil {
		return f.failed
	}
	n, err := f.f.Write(frames)
	if err == nil {
		f.size += int64(n)
		return nil
	}
	err = fmt.Errorf("journal: appending to %s: %w", f.path, err)
	if n > 0 && f.cut() != nil {
		f.failed = err
	}
	return err
}

// Sync flushes the file to stable storage.
func (f *File) Sync() error { return f.f.Sync() }

// Close closes the file, syncing it first when sync is set.
func (f *File) Close(sync bool) error {
	var err error
	if sync {
		err = f.f.Sync()
	}
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replace atomically replaces path with data. When that fails it reads
// path back and reports whether the new contents landed anyway; a path
// that cannot be read back counts as landed, since nobody can tell.
func replace(fsys storage.FS, path string, data []byte) (landed bool, err error) {
	if err = storage.WriteBytesAtomic(fsys, path, data); err == nil {
		return true, nil
	}
	cur, rerr := fsys.ReadFile(path)
	return rerr != nil || bytes.Equal(cur, data), err
}

// sweep removes the regular files in dir that owns claims. Callers claim
// only files nothing acknowledged lives in — temp files of a replace a
// kill interrupted, segments no manifest lists — so a sweep reclaims
// space and never loses data.
func sweep(fsys storage.FS, dir string, owns func(name string) bool) error {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("journal: listing %s: %w", dir, err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || !owns(e.Name()) {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("journal: removing %s: %w", e.Name(), err)
		}
	}
	return nil
}
