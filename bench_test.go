package diurnal

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/diurnalnet/diurnal/internal/experiments"
)

// One benchmark per paper table and figure, plus the ablations DESIGN.md
// calls out. Each iteration regenerates the artifact end-to-end at bench
// scale (world simulation, probing, reconstruction, classification, STL,
// CUSUM, aggregation); run with -benchtime=1x for a single regeneration.
// The printed experiment outputs live in EXPERIMENTS.md; cmd/experiments
// regenerates them at larger scale.

// benchOpts is the shared bench-scale knob. The world studies (Figures
// 8–10, 12–13) cache their pipeline run per (blocks, seed) within the
// process, so their benches measure the first full run and then the
// aggregation layers.
var benchOpts = experiments.Options{Blocks: 300, Seed: 1}

func benchmarkExperiment[T any](b *testing.B, fn func(experiments.Options) (T, error), opts experiments.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fn(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (block filtering across datasets).
func BenchmarkTable2(b *testing.B) {
	benchmarkExperiment(b, experiments.Table2, experiments.Options{Blocks: 120, Seed: 1})
}

// BenchmarkTable3 regenerates Table 3 (reconstruction vs survey truth).
func BenchmarkTable3(b *testing.B) {
	benchmarkExperiment(b, experiments.Table3, experiments.Options{Blocks: 100, Seed: 1})
}

// BenchmarkTable4 regenerates Table 4 (geographic coverage).
func BenchmarkTable4(b *testing.B) {
	benchmarkExperiment(b, experiments.Table4, experiments.Options{Blocks: 400, Seed: 1})
}

// BenchmarkTable5 regenerates Table 5 (sampled-block validation).
func BenchmarkTable5(b *testing.B) {
	benchmarkExperiment(b, experiments.Table5, benchOpts)
}

// BenchmarkLocationValidation regenerates the §3.7 UAE/Slovenia study.
func BenchmarkLocationValidation(b *testing.B) {
	benchmarkExperiment(b, experiments.LocationValidation, experiments.Options{Blocks: 1200, Seed: 1})
}

// BenchmarkFigure1 regenerates the running-example block analysis.
func BenchmarkFigure1(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure1, experiments.Options{})
}

// BenchmarkFigure2 regenerates the reconstruction walk-through.
func BenchmarkFigure2(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure2, experiments.Options{})
}

// BenchmarkFigure3 regenerates the scan-time CDF (1–4 observers).
func BenchmarkFigure3(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure3, experiments.Options{Blocks: 150, Seed: 1})
}

// BenchmarkFigure4 regenerates the easy/hard reconstruction comparison.
func BenchmarkFigure4(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure4, experiments.Options{})
}

// BenchmarkFigure5 regenerates the classification-failure heatmap.
func BenchmarkFigure5(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure5, experiments.Options{Blocks: 150, Seed: 1})
}

// BenchmarkFigure6 regenerates the congestive-loss / 1-loss-repair study.
func BenchmarkFigure6(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure6, experiments.Options{})
}

// BenchmarkFigure7 regenerates the change-sensitive world map summary.
func BenchmarkFigure7(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure7, experiments.Options{Blocks: 400, Seed: 1})
}

// BenchmarkFigure8 regenerates the continental 2020h1 trends.
func BenchmarkFigure8(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure8, benchOpts)
}

// BenchmarkFigure9 regenerates the China (Wuhan/Beijing/Shanghai) study.
func BenchmarkFigure9(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure9, benchOpts)
}

// BenchmarkFigure10 regenerates the New Delhi study.
func BenchmarkFigure10(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure10, benchOpts)
}

// BenchmarkFigure11 regenerates the Appendix B.1 representative blocks.
func BenchmarkFigure11(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure11, experiments.Options{})
}

// BenchmarkFigure12 regenerates the Beijing 2023q1 control.
func BenchmarkFigure12(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure12, benchOpts)
}

// BenchmarkFigure13 regenerates the New Delhi 2023q1 null control.
func BenchmarkFigure13(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure13, benchOpts)
}

// BenchmarkFigure14 regenerates the gridcell-threshold sensitivity curves.
func BenchmarkFigure14(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure14, experiments.Options{Blocks: 400, Seed: 1})
}

// BenchmarkFigure15 regenerates the VPN-migration case study.
func BenchmarkFigure15(b *testing.B) {
	benchmarkExperiment(b, experiments.Figure15, experiments.Options{})
}

// BenchmarkFBSModel regenerates the §3.2.3 full-block-scan predictor.
func BenchmarkFBSModel(b *testing.B) {
	benchmarkExperiment(b, experiments.FBSModel, experiments.Options{Blocks: 200, Seed: 1})
}

// BenchmarkExtraProbing regenerates the §2.8 additional-observations study.
func BenchmarkExtraProbing(b *testing.B) {
	benchmarkExperiment(b, experiments.ExtraProbing, experiments.Options{Blocks: 120, Seed: 1})
}

// BenchmarkObserverHealth regenerates the §2.7 observer cross-check.
func BenchmarkObserverHealth(b *testing.B) {
	benchmarkExperiment(b, experiments.ObserverHealth, experiments.Options{Blocks: 100, Seed: 1})
}

// BenchmarkProfileSeparation regenerates the §2.6 future-work profiling.
func BenchmarkProfileSeparation(b *testing.B) {
	benchmarkExperiment(b, experiments.ProfileSeparation, experiments.Options{Blocks: 150, Seed: 1})
}

// BenchmarkAblationSTLvsNaive regenerates the §2.5 decomposition ablation.
func BenchmarkAblationSTLvsNaive(b *testing.B) {
	benchmarkExperiment(b, experiments.AblationSTLvsNaive, experiments.Options{Blocks: 8, Seed: 1})
}

// BenchmarkAblationSwing regenerates the §2.4 swing-threshold sweep.
func BenchmarkAblationSwing(b *testing.B) {
	benchmarkExperiment(b, experiments.AblationSwing, experiments.Options{Blocks: 150, Seed: 1})
}

// BenchmarkAblationLossRepair regenerates the §3.3 loss sweep.
func BenchmarkAblationLossRepair(b *testing.B) {
	benchmarkExperiment(b, experiments.AblationLossRepair, experiments.Options{})
}

// BenchmarkAblationPersistence regenerates the §2.4 persistence-rule sweep.
func BenchmarkAblationPersistence(b *testing.B) {
	benchmarkExperiment(b, experiments.AblationPersistence, experiments.Options{Blocks: 100, Seed: 1})
}

// BenchmarkAblationOutageFilter regenerates the §2.6 filter comparison.
func BenchmarkAblationOutageFilter(b *testing.B) {
	benchmarkExperiment(b, experiments.AblationOutageFilter, experiments.Options{Blocks: 10, Seed: 1})
}

// BenchmarkEndToEndWorld measures the full public-API pipeline over a
// small Covid-era world: build, probe, reconstruct, classify, detect,
// aggregate.
func BenchmarkEndToEndWorld(b *testing.B) {
	start, end := Date(2020, 1, 1), Date(2020, 2, 26)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(WorldOptions{
			Blocks: 60, Seed: 1, Calendar: Calendar2020(), Start: start, End: end,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Run(DefaultConfig(start, end)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalingWorkers measures the end-to-end world run at 1 through
// 32 analysis workers — the worker-scaling curve of the per-block
// pipeline. Results are identical at every width (blocks are analyzed
// independently); only wall clock changes. On hosts with fewer cores than
// workers the curve flattens at the core count.
func BenchmarkScalingWorkers(b *testing.B) {
	start, end := Date(2020, 1, 1), Date(2020, 2, 26)
	for _, workers := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := NewWorld(WorldOptions{
					Blocks: 60, Seed: 1, Calendar: Calendar2020(), Start: start, End: end,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.RunContext(context.Background(), DefaultConfig(start, end),
					RunOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEndWorldCheckpointed is BenchmarkEndToEndWorld with a
// checkpoint journal attached (a fresh file each iteration, so every block
// is journaled and none resumed). Comparing the two quantifies the
// crash-safety overhead; the journaling budget is under 5% of the run.
func BenchmarkEndToEndWorldCheckpointed(b *testing.B) {
	start, end := Date(2020, 1, 1), Date(2020, 2, 26)
	dir := b.TempDir()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(WorldOptions{
			Blocks: 60, Seed: 1, Calendar: Calendar2020(), Start: start, End: end,
		})
		if err != nil {
			b.Fatal(err)
		}
		journal := filepath.Join(dir, "bench.ckpt")
		_, err = w.RunContext(context.Background(), DefaultConfig(start, end),
			RunOptions{CheckpointPath: journal})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.Remove(journal); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
