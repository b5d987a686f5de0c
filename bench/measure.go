package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/diurnalnet/diurnal/internal/stats"
)

// timedLoop runs unit until the time budget has elapsed, whole units only
// and at least once, and returns how many ran.
func timedLoop(seconds float64, unit func(i int) error) (int, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		// Every unit starts from a collected heap: what the last unit left
		// behind is freed here, outside any timing, so that a unit's pace
		// and the process's peak do not depend on where the collector
		// happened to stand when the previous unit ended.
		runtime.GC()
		if err := unit(i); err != nil {
			return i, err
		}
		if !time.Now().Before(deadline) {
			return i + 1, nil
		}
	}
}

// setupMedian runs a full set-up setupReps times and returns the median
// wall time in seconds. Each repetition replaces the last one's products;
// the last repetition's are the ones the timed section uses.
func setupMedian(setup func(rep int) error) (float64, error) {
	walls := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // as in timedLoop
		t0 := time.Now()
		if err := setup(rep); err != nil {
			return 0, fmt.Errorf("set-up %d: %w", rep, err)
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls), nil
}

// median and quantile are stats.Median and stats.Quantile, with zero for
// "no sample": a traced section at smoke size may never reach a stage.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
