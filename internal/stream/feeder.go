package stream

// Feeder turns a batch prober into a round stream.
//
// The probing engine seeds per-observer state (next-round phase, probe
// cursor) afresh on every collection call, so collecting a sub-window
// does NOT produce the records a whole-window collection produces over
// that sub-window. A feeder therefore collects each block's full analysis
// window exactly once — the same collection the batch pipeline performs —
// and chops the per-observer streams into rounds by timestamp. Streaming
// then sees byte-identical records to batch, which is what makes the
// batch-parity acceptance check meaningful.

import (
	"context"
	"fmt"
	"sort"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// Feeder produces the round stream for one world by chopping one-shot
// whole-window collections. It is not safe for concurrent use.
type Feeder struct {
	cfg    Config
	nround int64
	// streams[b][o] is block b's observer o records over the full window;
	// cuts[b][o][s] is the offset where round s begins in that stream
	// (with a final offset at the stream's end), so a round is the
	// subslice streams[b][o][cuts[b][o][s]:cuts[b][o][s+1]].
	streams [][][]probe.Record
	cuts    [][][]int
}

// NewFeeder collects every block's full analysis window through eng and
// indexes the streams by round.
func NewFeeder(ctx context.Context, eng core.Prober, world []*dataset.WorldBlock, cfg Config) (*Feeder, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Feeder{cfg: cfg, nround: cfg.rounds()}
	start, end := cfg.Core.AnalysisStart, cfg.Core.AnalysisEnd
	for _, wb := range world {
		bufs, err := eng.CollectInto(ctx, wb.Block, start, end, nil)
		if err != nil {
			return nil, fmt.Errorf("stream: collecting block %v: %w", wb.Block.ID, err)
		}
		perObs := make([][]probe.Record, len(bufs))
		perCuts := make([][]int, len(bufs))
		for o, stream := range bufs {
			perObs[o] = append([]probe.Record(nil), stream...)
			cuts := make([]int, f.nround+1)
			for s := int64(0); s < f.nround; s++ {
				roundStart := start + s*cfg.RoundLen
				cuts[s] = sort.Search(len(stream), func(i int) bool {
					return stream[i].T >= roundStart
				})
			}
			cuts[f.nround] = len(stream)
			perCuts[o] = cuts
		}
		f.streams = append(f.streams, perObs)
		f.cuts = append(f.cuts, perCuts)
	}
	return f, nil
}

// Rounds returns how many rounds tile the analysis window.
func (f *Feeder) Rounds() int64 { return f.nround }

// Observers returns the per-block observer stream count.
func (f *Feeder) Observers() int {
	if len(f.streams) == 0 {
		return 0
	}
	return len(f.streams[0])
}

// Round assembles round seq. The returned round shares the feeder's
// record storage; callers must not mutate the records.
func (f *Feeder) Round(seq int64) (*Round, error) {
	if seq < 0 || seq >= f.nround {
		return nil, fmt.Errorf("stream: round %d out of range [0,%d)", seq, f.nround)
	}
	start, end := f.cfg.roundWindow(seq)
	r := &Round{Seq: seq, Start: start, End: end}
	for b := range f.streams {
		perObs := make([][]probe.Record, len(f.streams[b]))
		for o, stream := range f.streams[b] {
			cuts := f.cuts[b][o]
			perObs[o] = stream[cuts[seq]:cuts[seq+1]]
		}
		r.Blocks = append(r.Blocks, perObs)
	}
	return r, nil
}

// Feed ingests rounds [d.NextIngestSeq(), Rounds()) into the daemon in
// order — the resume-aware driver loop.
func (f *Feeder) Feed(ctx context.Context, d *Daemon) error {
	for seq := d.NextIngestSeq(); seq < f.nround; seq++ {
		r, err := f.Round(seq)
		if err != nil {
			return err
		}
		if err := d.Ingest(ctx, r); err != nil {
			return err
		}
	}
	return nil
}
