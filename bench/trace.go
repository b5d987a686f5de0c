package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/diurnalnet/diurnal/internal/storage"
)

// span is one traced call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	// Item is the block index, round sequence or request number the call
	// belongs to; spans of one item share it.
	Item int `json:"item"`
	// StartNs and EndNs are offsets from the tracer's start.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Attr qualifies the span (cache state, refresh or not).
	Attr string `json:"attr,omitempty"`
	// childNs is the part of the interval child spans cover.
	childNs int64
}

// tracer records spans around the benchmark's calls into each layer and
// keeps them in memory until the run ends. It is for one goroutine: begin
// and end nest like a stack, and a span's parent is the span open when it
// began. A nil tracer records nothing, which is how the untraced twin of
// a traced pass runs.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, item int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Item: item})
	t.open = append(t.open, id)
	t.spans[id].StartNs = int64(time.Since(t.t0))
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	if len(t.open) == 0 || t.open[len(t.open)-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.EndNs = now
	if s.Parent >= 0 {
		t.spans[s.Parent].childNs += s.EndNs - s.StartNs
	}
}

// attr qualifies span id after the fact.
func (t *tracer) attr(id int, attr string) {
	if t != nil {
		t.spans[id].Attr = attr
	}
}

// self returns, per span name (name/attr when an attr is set), every
// span's self time: its duration minus what its children cover.
func (t *tracer) self() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		name := s.Name
		if s.Attr != "" {
			name += "/" + s.Attr
		}
		out[name] = append(out[name], time.Duration(s.EndNs-s.StartNs-s.childNs))
	}
	return out
}

// traceFile is the JSON written by -trace-out.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

// section is one traced part of the system. pass runs its core loop once,
// recording spans into tr (nil: the untraced twin); report derives the
// section's per-layer metrics from the spans of a traced pass.
type section interface {
	pass(ctx context.Context, tr *tracer) error
	report(tr *tracer, r *result) error
}

// runTraced makes the separate traced run. The driver wants every
// per-layer metric from every traced run, so all four sections run: the
// named workload's at a quarter of its size, repeated as untraced/traced
// pairs for the time budget (which yields trace.overhead_frac), the
// others once at probe size.
func runTraced(e *env, focus string, r *result) error {
	ctx := context.Background()
	// size is a section's block count: a quarter of the workload's when
	// it is the one named, probe size otherwise.
	size := func(workload string, full, probe int) int {
		if workload == focus {
			return max(1, full/traceDivisor)
		}
		return min(probe, full)
	}
	reqs := probeServeReqs
	if focus == "serve_mixed" {
		reqs = traceServeReqs
	}
	builders := []struct {
		workload string
		build    func() (section, error)
	}{
		{"scan_sim", func() (section, error) {
			return newSimSection(ctx, e, size("scan_sim", e.simBlocks(), probeSimBlocks), focus != "scan_replay_guarded")
		}},
		{"scan_replay_guarded", func() (section, error) {
			return newReplaySection(ctx, e, size("scan_replay_guarded", e.replayBlocks(), probeReplay), focus == "scan_replay_guarded")
		}},
		{"stream_daemon", func() (section, error) {
			return newStreamSection(ctx, e, size("stream_daemon", e.streamBlocks(), probeStream))
		}},
		{"serve_mixed", func() (section, error) {
			return newServeSection(ctx, e, size("serve_mixed", e.serveBlocks(), probeServeBlocks), max(200, int(float64(reqs)*e.scale)))
		}},
	}
	for _, b := range builders {
		sec, err := b.build()
		if err != nil {
			return fmt.Errorf("traced %s section: %w", b.workload, err)
		}
		tr := newTracer()
		if b.workload != focus {
			if err := sec.pass(ctx, tr); err != nil {
				return fmt.Errorf("traced %s section: %w", b.workload, err)
			}
		} else {
			// Untraced/traced pairs of the same pass; the spans kept are the
			// first traced pass's, so counts do not depend on the pair count.
			var overhead []float64
			_, err := timedLoop(e.seconds, func(i int) error {
				t0 := time.Now()
				if err := sec.pass(ctx, nil); err != nil {
					return err
				}
				plain := time.Since(t0)
				pairTr := tr
				if i > 0 {
					pairTr = newTracer()
				}
				t0 = time.Now()
				if err := sec.pass(ctx, pairTr); err != nil {
					return err
				}
				overhead = append(overhead, time.Since(t0).Seconds()/plain.Seconds()-1)
				return nil
			})
			if err != nil {
				return fmt.Errorf("traced %s section: %w", b.workload, err)
			}
			r.set("trace.overhead_frac", median(overhead), len(overhead))
			if e.traceOut != "" {
				if err := writeTrace(e.traceOut, traceFile{Workload: focus, Seed: e.seed, Spans: tr.spans}); err != nil {
					return err
				}
			}
		}
		if err := sec.report(tr, r); err != nil {
			return fmt.Errorf("traced %s section: %w", b.workload, err)
		}
		r.Attempted += len(tr.spans) // every span is one call that returned without error
	}

	// The disk calibrator: explains movement in set-up, publish,
	// checkpoint and WAL numbers that no code change caused.
	calib := make([]float64, 9)
	data := make([]byte, 1<<20)
	for i := range calib {
		t0 := time.Now()
		if err := storage.WriteBytesAtomic(storage.OS, filepath.Join(e.dir, "calibrate"), data); err != nil {
			return err
		}
		calib[i] = msOf(time.Since(t0))
	}
	r.set("storage.write_atomic_ms_p50", median(calib), len(calib))
	return nil
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
