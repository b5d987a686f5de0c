package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// childArgs are the settings a parent run hands to the per-workload
// processes it starts. Every run is its own process because peak_rss_mb
// is the process's high-water mark.
type childArgs struct {
	seed    uint64
	seconds float64
	scale   float64
	tmp     string
}

// runChild runs one workload in a fresh process of this same binary and
// parses the result line. The child's report goes to log.
func runChild(log io.Writer, workload string, traced bool, a childArgs) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatUint(a.seed, 10),
		"-seconds", strconv.FormatFloat(a.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(a.scale, 'g', -1, 64),
		"-trace", trace,
		"-tmp", a.tmp)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", workload, trace, err)
	}
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if last != nil {
			fmt.Fprintf(log, "%s\n", last)
		}
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	r := newResult()
	if err := json.Unmarshal(last, r); err != nil {
		return nil, fmt.Errorf("%s (trace %s): parsing the result line: %w", workload, trace, err)
	}
	return r, nil
}

// runAll runs every named workload untraced and traced, one process each.
func runAll(w io.Writer, names []string, a childArgs) error {
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			if _, err := runChild(w, name, traced, a); err != nil {
				return err
			}
		}
	}
	return nil
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is how the driver judges spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		return xs[0], xs[0], xs[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// selfCheck runs each named workload n times on the same code and seed
// and judges every end-to-end metric against its own bound: the spread
// (Q3-Q1 over the median) and every single run's distance from the median
// must stay inside the bound, and the spread should stay under a third of
// it. A metric that strays more than a tenth is named as a candidate for
// demotion to the per-layer metrics. It then makes two traced runs and
// requires every count metric to repeat exactly.
func selfCheck(w io.Writer, names []string, n int, a childArgs) error {
	bad := 0
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			r, err := runChild(io.Discard, name, false, a)
			if err != nil {
				return err
			}
			if r.Failed != 0 {
				fmt.Fprintf(w, "%s run %d: %d of %d operations failed\n", name, i, r.Failed, r.Attempted)
				bad++
			}
			for metric, m := range r.Metrics {
				values[metric] = append(values[metric], m.Value)
			}
		}
		fmt.Fprintf(w, "%s: %d runs, seed %d\n", name, n, a.seed)
		fmt.Fprintf(w, "  %-18s %12s %12s %12s %8s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "maxdev", "bound", "verdict")
		for _, d := range endToEnd {
			vs := values[d.Name]
			q1, med, q3 := quartiles(vs)
			spread := (q3 - q1) / med
			maxDev := 0.0
			for _, v := range vs {
				maxDev = max(maxDev, math.Abs(v-med)/med)
			}
			verdict := "ok"
			switch {
			case d.Name == "setup_s":
				verdict = "ok (spread of setup_s is not judged)"
			case spread > d.Bound || maxDev > d.Bound:
				verdict = "FAIL: outside the bound"
				bad++
			case spread > d.Bound/3:
				verdict = "steady it: spread above a third of the bound"
			}
			if maxDev > 0.10 {
				verdict += "; strays more than a tenth: demotion candidate"
			}
			fmt.Fprintf(w, "  %-18s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %5.0f%%  %s\n",
				d.Name, q1, med, q3, 100*spread, 100*maxDev, 100*d.Bound, verdict)
		}
		first, err := runChild(io.Discard, name, true, a)
		if err != nil {
			return err
		}
		second, err := runChild(io.Discard, name, true, a)
		if err != nil {
			return err
		}
		for _, d := range perLayer {
			if d.Count && first.Metrics[d.Name].Value != second.Metrics[d.Name].Value {
				fmt.Fprintf(w, "  FAIL: count %s read %v then %v\n", d.Name, first.Metrics[d.Name].Value, second.Metrics[d.Name].Value)
				bad++
			}
		}
		fmt.Fprintf(w, "  trace.overhead_frac %.4f then %.4f; counts repeat\n",
			first.Metrics["trace.overhead_frac"].Value, second.Metrics["trace.overhead_frac"].Value)
	}
	if bad > 0 {
		return fmt.Errorf("self-check: %d findings", bad)
	}
	return nil
}
