package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/diurnalnet/diurnal/internal/storage"
)

// Log is a segmented journal in one directory, so a writer can run
// forever on a bounded disk:
//
//	<name>.wal.manifest — JSON list of segment files, in replay order
//	<name>-00000001.wal — oldest segment
//	<name>-00000002.wal — ... newest segment; appends go here
//
// Every segment is a framed file that opens with the log's header. A
// segment is created holding its header (and, for a compaction, the base
// payloads), then fsynced and its directory fsynced, before a manifest
// swap lists it; frames are appended to it only after the swap. So every
// acknowledged frame lives in a listed segment at every kill point, and
// a kill between creation and swap leaves only an unlisted orphan, which
// the next open deletes. Only the newest segment may end in a torn frame:
// a tear in a sealed segment is corruption and fails the open.
//
// A Log is not safe for concurrent use; its owner serializes access.
type Log struct {
	fsys     storage.FS
	dir      string
	name     string
	hdr      Header
	segBytes int64 // rotation threshold (0: never rotate)

	segs  []string // manifest order; appends go to the last
	segn  int      // next segment number
	tail  *File
	total int64 // bytes across every listed segment
	buf   []byte

	rotations   int64
	compactions int64
}

// Usage is what a log holds on disk and how it got there.
type Usage struct {
	Bytes       int64 // across every listed segment
	Segments    int
	Rotations   int64
	Compactions int64
}

// manifest is the JSON a log's manifest file holds.
type manifest struct {
	Segments []string `json:"segments"`
}

func (l *Log) manifestName() string    { return l.name + ".wal.manifest" }
func (l *Log) segName(n int) string    { return fmt.Sprintf("%s-%08d.wal", l.name, n) }
func (l *Log) path(name string) string { return filepath.Join(l.dir, name) }

// numbered reports whether name is one of the log's numbered segments,
// moving the next segment number past it.
func (l *Log) numbered(name string) bool {
	var n int
	if _, err := fmt.Sscanf(name, l.name+"-%08d.wal", &n); err != nil || l.segName(n) != name {
		return false
	}
	if n >= l.segn {
		l.segn = n + 1
	}
	return true
}

// OpenLog opens (or creates) the log name in dir, rotating segments past
// segBytes (0: never). Every listed segment's header goes to hdr.Check
// and its other frames, in order, to fn. The newest segment's torn tail
// is truncated, and the segments and manifest temp files a killed
// rotation or compaction left behind are deleted.
func OpenLog(fsys storage.FS, dir, name string, hdr Header, segBytes int64, fn func(payload []byte) error) (*Log, error) {
	l := &Log{fsys: fsys, dir: dir, name: name, hdr: hdr, segBytes: segBytes, segn: 1}
	mpath := l.path(l.manifestName())
	data, err := fsys.ReadFile(mpath)
	switch {
	case err == nil:
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("journal: manifest %s is unreadable: %w", mpath, err)
		}
		if len(m.Segments) == 0 {
			return nil, fmt.Errorf("journal: manifest %s lists no segments", mpath)
		}
		l.segs = m.Segments
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("journal: reading manifest %s: %w", mpath, err)
	}
	listed := make(map[string]bool, len(l.segs))
	for _, s := range l.segs {
		listed[s] = true
		l.numbered(s)
	}
	if err := sweep(fsys, dir, func(n string) bool {
		return !listed[n] && (strings.HasPrefix(n, l.manifestName()+".tmp") || l.numbered(n))
	}); err != nil {
		return nil, err
	}

	if len(l.segs) == 0 {
		seg, err := l.create()
		if err != nil {
			return nil, err
		}
		if err := l.install(seg, nil); err != nil {
			return nil, err
		}
		return l, nil
	}
	last := len(l.segs) - 1
	for i, s := range l.segs {
		size, good, err := l.scanSegment(s, i == last, fn)
		if err != nil {
			return nil, err
		}
		if i < last {
			l.total += int64(size)
			continue
		}
		if l.tail, err = reopen(fsys, l.path(s), good); err != nil {
			return nil, err
		}
		if good == 0 {
			// A fresh or wholly torn tail: restore its header.
			if err := l.tail.Append(AppendFrame(nil, hdr.Payload)); err != nil {
				l.tail.Close(false)
				return nil, err
			}
		}
		l.total += l.tail.size
	}
	return l, nil
}

// scanSegment reads one listed segment and passes its header to
// l.hdr.Check and its other frames to fn. It returns the segment's size
// and the offset past its last intact frame; only the tail may end
// short of its size.
func (l *Log) scanSegment(name string, tail bool, fn func([]byte) error) (size, good int, err error) {
	path := l.path(name)
	data, err := l.fsys.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("journal: reading segment %s: %w", path, err)
	}
	if good, err = scan(data, l.hdr, fn); err != nil {
		return 0, 0, fmt.Errorf("journal: %s: %w", path, err)
	}
	if good < len(data) && !tail {
		return 0, 0, fmt.Errorf("journal: sealed segment %s has a torn frame mid-journal; the log is corrupt (only the newest segment may have a torn tail)", path)
	}
	return len(data), good, nil
}

// Replay re-reads every listed segment from disk and passes its data
// frames to fn, as OpenLog did: the input of a state rebuild or of a
// compaction.
func (l *Log) Replay(fn func(payload []byte) error) error {
	for i, s := range l.segs {
		if _, _, err := l.scanSegment(s, i == len(l.segs)-1, fn); err != nil {
			return err
		}
	}
	return nil
}

// Append journals one payload with a single write(), first rotating to a
// fresh segment when the frame would take a tail that already holds data
// past the segment threshold. A failed append leaves the log as it was.
func (l *Log) Append(payload []byte) error {
	if l.tail.failed != nil {
		return l.tail.failed
	}
	frame := int64(len(payload) + Overhead)
	if l.segBytes > 0 && l.tail.size > int64(len(l.hdr.Payload)+Overhead) && l.tail.size+frame > l.segBytes {
		if err := l.Rotate(); err != nil {
			return err
		}
	}
	l.buf = AppendFrame(l.buf[:0], payload)
	if err := l.tail.Append(l.buf); err != nil {
		return err
	}
	l.total += frame
	return nil
}

// Rotate seals the tail and moves appends to a fresh segment, which
// opens with the log's header: Append calls it past the segment
// threshold, and an owner whose header changed calls it so that no new
// frame lands in a segment opened under the old one.
func (l *Log) Rotate() error {
	if l.tail.failed != nil {
		return l.tail.failed
	}
	if err := l.tail.Sync(); err != nil {
		return fmt.Errorf("journal: sealing %s: %w", l.tail.path, err)
	}
	seg, err := l.create()
	if err != nil {
		return err
	}
	if err := l.install(seg, l.segs); err != nil {
		return err
	}
	l.rotations++
	return nil
}

// Compact replaces the whole log with one base segment holding payloads,
// which must stand for everything the log held. The old segments are
// deleted only once the base is durable and the manifest lists it alone.
func (l *Log) Compact(payloads ...[]byte) error {
	if l.tail.failed != nil {
		return l.tail.failed
	}
	seg, err := l.create(payloads...)
	if err != nil {
		return err
	}
	old := l.segs
	if err := l.install(seg, nil); err != nil {
		return err
	}
	l.total = seg.size
	l.compactions++
	for _, s := range old {
		// Best-effort: whatever a failure leaves, the next open sweeps.
		l.fsys.Remove(l.path(s))
	}
	return nil
}

// create makes the next segment, holding the header and then payloads,
// and makes it durable (file and directory fsync) so a manifest may list
// it.
func (l *Log) create(payloads ...[]byte) (*File, error) {
	path := l.path(l.segName(l.segn))
	f, err := l.fsys.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: creating segment %s: %w", path, err)
	}
	l.buf = AppendFrame(l.buf[:0], l.hdr.Payload)
	for _, p := range payloads {
		l.buf = AppendFrame(l.buf, p)
	}
	if _, err = f.Write(l.buf); err == nil {
		if err = f.Sync(); err == nil {
			err = l.fsys.SyncDir(l.dir)
		}
	}
	if err != nil {
		f.Close()
		l.fsys.Remove(path)
		return nil, fmt.Errorf("journal: creating segment %s: %w", path, err)
	}
	return &File{path: path, f: f, size: int64(len(l.buf))}, nil
}

// install swaps in a manifest listing keep and then seg, and makes seg
// the tail. A swap that provably did not land deletes seg; one that did,
// or might have, keeps it — the manifest on disk may list it — and
// poisons the tail (see the package comment).
func (l *Log) install(seg *File, keep []string) error {
	segs := append(append(make([]string, 0, len(keep)+1), keep...), filepath.Base(seg.path))
	data, _ := json.Marshal(manifest{Segments: segs}) // a list of strings always marshals
	if landed, err := replace(l.fsys, l.path(l.manifestName()), append(data, '\n')); err != nil {
		seg.Close(false)
		switch {
		case !landed:
			l.fsys.Remove(seg.path)
		case l.tail != nil:
			l.tail.failed = err
		}
		return fmt.Errorf("journal: swapping manifest: %w", err)
	}
	if l.tail != nil {
		l.tail.Close(false)
	}
	l.segn++
	l.segs = segs
	l.tail = seg
	l.total += seg.size
	return nil
}

// Usage reports what the log holds on disk.
func (l *Log) Usage() Usage {
	return Usage{Bytes: l.total, Segments: len(l.segs), Rotations: l.rotations, Compactions: l.compactions}
}

// Close closes the tail segment, syncing it first when sync is set;
// sealed segments were synced when they were sealed.
func (l *Log) Close(sync bool) error { return l.tail.Close(sync) }
