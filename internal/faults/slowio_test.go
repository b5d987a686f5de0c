package faults

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestSlowReaderAtDelaysAndDelegates(t *testing.T) {
	inner := strings.NewReader("hello columnar world")
	s := &SlowReaderAt{R: inner, Delay: 30 * time.Millisecond}
	buf := make([]byte, 5)
	t0 := time.Now()
	n, err := s.ReadAt(buf, 6)
	if err != nil || string(buf[:n]) != "colum" {
		t.Fatalf("ReadAt = %q, %v", buf[:n], err)
	}
	if el := time.Since(t0); el < 30*time.Millisecond {
		t.Errorf("read returned after %v, want >= 30ms stall", el)
	}
	if s.Reads() != 1 {
		t.Errorf("Reads = %d", s.Reads())
	}
}

func TestSlowReaderAtContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &SlowReaderAt{R: strings.NewReader("x"), Delay: time.Hour, Ctx: ctx}
	done := make(chan error, 1)
	go func() {
		_, err := s.ReadAt(make([]byte, 1), 0)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled stall did not abort")
	}
}

func TestSlowReaderAtZeroDelay(t *testing.T) {
	s := &SlowReaderAt{R: strings.NewReader("ab")}
	buf := make([]byte, 2)
	if n, err := s.ReadAt(buf, 0); err != nil || n != 2 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
}

// Reads reports how many ReadAt calls arrived (including aborted ones).
func (s *SlowReaderAt) Reads() int64 { return s.reads.Load() }
