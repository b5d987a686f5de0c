package faults

// SlowReaderAt models a stalling disk: every ReadAt blocks for a fixed
// delay (or until a context is cancelled) before delegating. The serve
// chaos tests wrap a snapshot's backing file with one to prove that a
// request whose deadline expires inside a disk read degrades into a
// retryable shed instead of wedging an admission slot.

import (
	"context"
	"io"
	"sync/atomic"
	"time"
)

// SlowReaderAt delays every ReadAt by Delay before delegating to R.
type SlowReaderAt struct {
	R io.ReaderAt
	// Delay is how long each ReadAt stalls before touching R.
	Delay time.Duration
	// Ctx, when non-nil, aborts in-flight stalls early with the context's
	// error — so tests can release stalled readers without waiting out
	// the full delay.
	Ctx context.Context

	reads atomic.Int64
}

// ReadAt stalls, then reads. A cancelled Ctx cuts the stall short and
// surfaces the context error as the read error.
func (s *SlowReaderAt) ReadAt(p []byte, off int64) (int, error) {
	s.reads.Add(1)
	if s.Delay > 0 {
		t := time.NewTimer(s.Delay)
		defer t.Stop()
		if s.Ctx != nil {
			select {
			case <-t.C:
			case <-s.Ctx.Done():
				return 0, s.Ctx.Err()
			}
		} else {
			<-t.C
		}
	}
	return s.R.ReadAt(p, off)
}
