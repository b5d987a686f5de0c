package serve

// Benchmarks of codec throughput plus the load harness driven at 1× and
// 10× the admission ceiling, reporting the server-side p50/p99 and shed
// counts via b.ReportMetric.

import (
	"os"
	"testing"
	"time"
)

func benchSnapshotBytes(b *testing.B) []byte {
	b.Helper()
	res, sig, start, end := buildResult()
	data, err := EncodeSnapshot(res, sig, start, end)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

func BenchmarkSnapshotEncode(b *testing.B) {
	res, sig, start, end := buildResult()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeSnapshot(res, sig, start, end); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	data := benchSnapshotBytes(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d, faults := decodeSnapshot(data); d == nil {
			b.Fatal(faults)
		}
	}
}

// benchServe runs the load harness against a fresh server and reports
// per-class latency quantiles and the shed volume.
func benchServe(b *testing.B, workers int) {
	dir := b.TempDir()
	res, sig, start, end := buildResult()
	path, err := WriteSnapshot(dir, res, sig, start, end)
	if err != nil {
		b.Fatal(err)
	}
	const maxInflight = 8
	s := New(Config{
		Dir:          dir,
		MaxInflight:  maxInflight,
		FreshTTL:     20 * time.Millisecond,
		QueryTimeout: time.Second,
	})
	defer s.Close()
	if err := s.Install(path); err != nil {
		b.Fatal(err)
	}
	cells := s.cur.Load().CellKeys()
	var last *LoadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = RunLoad(s.Handler(), cells, LoadOptions{
			Workers:  workers,
			Requests: 100,
			Seed:     int64(i + 1),
		})
	}
	b.StopTimer()
	if last.Other != 0 || last.ShedNoRetryAfter != 0 {
		b.Fatalf("contract violated: %+v", last)
	}
	b.ReportMetric(last.Classes["cell"].P50ms, "cell-p50-ms")
	b.ReportMetric(last.Classes["cell"].P99ms, "cell-p99-ms")
	b.ReportMetric(last.Classes["topk"].P99ms, "topk-p99-ms")
	b.ReportMetric(float64(last.Shed), "shed")
	b.ReportMetric(float64(last.Stale), "stale")
}

func BenchmarkServeNominal(b *testing.B)  { benchServe(b, 8) }
func BenchmarkServeOverload(b *testing.B) { benchServe(b, 80) }

func BenchmarkSnapshotVerify(b *testing.B) {
	dir := b.TempDir()
	res, sig, start, end := buildResult()
	path, err := WriteSnapshot(dir, res, sig, start, end)
	if err != nil {
		b.Fatal(err)
	}
	if fi, err := os.Stat(path); err == nil {
		b.SetBytes(fi.Size())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := VerifySnapshot(path)
		if err != nil || !rep.Clean() {
			b.Fatalf("verify: %v %v", err, rep)
		}
	}
}
