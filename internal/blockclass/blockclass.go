// Package blockclass decides which /24 blocks are change-sensitive
// (paper §2.4): blocks whose reconstructed active-address series shows a
// regular diurnal pattern (FFT energy at 24 hours and its harmonics) and a
// persistent wide daily swing (at least s addresses of midnight-to-midnight
// range on at least 4 of 7 consecutive days). Only change-sensitive blocks
// carry enough human signal for change detection; always-on servers, NAT
// front doors, and firewalled space are filtered out here.
package blockclass

import (
	"fmt"

	"github.com/diurnalnet/diurnal/internal/dsp"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
)

// Config holds the classification thresholds. Zero fields take the paper's
// defaults via Default().
type Config struct {
	// DiurnalThreshold is the minimum fraction of non-DC spectral energy
	// at 24 h and harmonics for a block to count as diurnal.
	DiurnalThreshold float64
	// DiurnalSNR is the minimum spectral contrast of the 24 h harmonics
	// over the neighbouring bins; it rejects red-spectrum noise (slow
	// random wander) that inflates the energy fraction without a sharp
	// daily peak.
	DiurnalSNR float64
	// SwingThreshold is s, the minimum daily address swing; the paper
	// selects 5 "as the minimum value that tolerates uncorrelated outages
	// caused by a few computers".
	SwingThreshold float64
	// MinSwingDays and WindowDays encode the persistence rule: a wide
	// swing on at least MinSwingDays of WindowDays consecutive days, for
	// at least one window in the observation period (the paper uses 4 of
	// 7, tolerating 3-day weekends).
	MinSwingDays int
	WindowDays   int
	// SampleStep is the resampling interval in seconds for the FFT test.
	SampleStep int64
	// Harmonics counted in the diurnal test.
	Harmonics int
	// SegmentDays splits the window into segments of this many days; the
	// diurnal test must pass in every segment that holds at least two
	// full days of data. This is the paper's "strict requirement" of
	// consistent diurnality across the whole duration (§3.2.1): longer
	// windows intersect more behavioural churn and so pass less often.
	// Default 28.
	SegmentDays int
}

// Default returns the paper's thresholds.
func Default() Config {
	return Config{
		DiurnalThreshold: 0.15,
		DiurnalSNR:       25,
		SegmentDays:      28,
		SwingThreshold:   5,
		MinSwingDays:     4,
		WindowDays:       7,
		SampleStep:       3600,
		Harmonics:        3,
	}
}

func (c Config) withDefaults() Config {
	d := Default()
	if c.DiurnalThreshold == 0 {
		c.DiurnalThreshold = d.DiurnalThreshold
	}
	if c.DiurnalSNR == 0 {
		c.DiurnalSNR = d.DiurnalSNR
	}
	if c.SwingThreshold == 0 {
		c.SwingThreshold = d.SwingThreshold
	}
	if c.MinSwingDays == 0 {
		c.MinSwingDays = d.MinSwingDays
	}
	if c.WindowDays == 0 {
		c.WindowDays = d.WindowDays
	}
	if c.SampleStep == 0 {
		c.SampleStep = d.SampleStep
	}
	if c.Harmonics == 0 {
		c.Harmonics = d.Harmonics
	}
	if c.SegmentDays == 0 {
		c.SegmentDays = d.SegmentDays
	}
	return c
}

// Result reports each stage of the classification, mirroring the filter
// rows of the paper's Table 2.
type Result struct {
	// Responsive is true when the reconstruction has points and any
	// address was ever seen up.
	Responsive bool
	// DiurnalScore is the fraction of spectral energy at 24 h + harmonics.
	DiurnalScore float64
	// SNR is the spectral contrast of the harmonics over their
	// neighbourhood.
	SNR float64
	// Diurnal requires both DiurnalScore >= DiurnalThreshold and
	// SNR >= DiurnalSNR.
	Diurnal bool
	// WideSwing is true when the persistence rule is met.
	WideSwing bool
	// BestWindowDays is the maximum number of wide-swing days observed in
	// any WindowDays-long window.
	BestWindowDays int
	// ChangeSensitive = Responsive && Diurnal && WideSwing.
	ChangeSensitive bool
}

// Scratch holds the reusable working state of ClassifyScratch: the DSP
// scratch (FFT plans and periodogram buffers) and the segment resampling
// buffers. A zero Scratch is not usable — construct with NewScratch. Not
// safe for concurrent use; the pipeline gives each worker its own.
type Scratch struct {
	DSP      *dsp.Scratch
	Resample reconstruct.ResampleScratch
}

// NewScratch returns an empty classification scratch.
func NewScratch() *Scratch {
	return &Scratch{DSP: dsp.NewScratch()}
}

// Classify evaluates a reconstructed series over [start, end) against the
// thresholds. It returns an error only for invalid configuration; an
// empty or flat series simply classifies as not change-sensitive.
func Classify(series *reconstruct.Series, start, end int64, cfg Config) (Result, error) {
	return ClassifyScratch(series, start, end, cfg, nil)
}

// ClassifyScratch is Classify reusing sc's buffers and cached FFT plans
// across calls; sc may be nil, in which case a throwaway scratch is built.
// The hot path — one 28-day segment resample plus one periodogram feeding
// both the score and the SNR — allocates nothing on a warm scratch.
func ClassifyScratch(series *reconstruct.Series, start, end int64, cfg Config, sc *Scratch) (Result, error) {
	cfg = cfg.withDefaults()
	if sc == nil {
		sc = NewScratch()
	}
	if cfg.MinSwingDays > cfg.WindowDays {
		return Result{}, fmt.Errorf("blockclass: MinSwingDays %d > WindowDays %d", cfg.MinSwingDays, cfg.WindowDays)
	}
	if cfg.SampleStep <= 0 || cfg.SampleStep > 86400/2 {
		return Result{}, fmt.Errorf("blockclass: sample step %d outside (0, 12h]", cfg.SampleStep)
	}
	var res Result
	if series == nil || series.Len() == 0 {
		return res, nil
	}
	for _, c := range series.Counts {
		if c > 0 {
			res.Responsive = true
			break
		}
	}
	if !res.Responsive {
		return res, nil
	}

	// Evaluate the diurnal test per segment: every segment must show the
	// daily rhythm, so a block that is diurnal for only part of a long
	// window is rejected (consistent diurnality, §3.2.1). The reported
	// score and SNR are the weakest segment's.
	opts := dsp.DiurnalScoreOpts{
		SampleInterval: float64(cfg.SampleStep),
		Period:         86400,
		Harmonics:      cfg.Harmonics,
	}
	segLen := int64(cfg.SegmentDays) * 86400
	evaluated := false
	allPass := true
	for segStart := start; segStart < end; segStart += segLen {
		segEnd := segStart + segLen
		if segEnd > end {
			segEnd = end
		}
		if segEnd-segStart < 2*86400 {
			continue
		}
		resampled := series.ResampleInto(&sc.Resample, segStart, segEnd, cfg.SampleStep)
		if resampled == nil {
			continue
		}
		st, err := sc.DSP.DiurnalStats(resampled, opts)
		if err != nil {
			continue
		}
		if !evaluated || st.Score < res.DiurnalScore {
			res.DiurnalScore = st.Score
		}
		if !evaluated || st.SNR < res.SNR {
			res.SNR = st.SNR
		}
		evaluated = true
		if st.Score < cfg.DiurnalThreshold || st.SNR < cfg.DiurnalSNR {
			allPass = false
		}
	}
	res.Diurnal = evaluated && allPass

	days, swings := series.DailySwings()
	res.BestWindowDays = bestWindow(days, swings, cfg.SwingThreshold, cfg.WindowDays)
	res.WideSwing = res.BestWindowDays >= cfg.MinSwingDays
	res.ChangeSensitive = res.Responsive && res.Diurnal && res.WideSwing
	return res, nil
}

// bestWindow returns the maximum count of days with swing >= threshold in
// any run of windowDays consecutive calendar days that starts inside the
// series; a series shorter than one window counts all its wide days. days
// must be ascending, as Series.DailySwings returns them.
//
// Some best window starts on a wide day, or at the latest start when that
// wide day lies past it, so one sliding pass over the wide days finds it
// in O(len(days)) however far apart the days are.
func bestWindow(days []int64, swings []float64, threshold float64, windowDays int) int {
	if len(days) == 0 {
		return 0
	}
	wide := make([]int64, 0, len(days))
	for i, d := range days {
		if swings[i] >= threshold && (len(wide) == 0 || d != wide[len(wide)-1]) {
			wide = append(wide, d)
		}
	}
	w := int64(windowDays)
	latest := days[len(days)-1] - w + 1 // the last window start inside the series
	if latest < days[0] {
		return len(wide)
	}
	best := 0
	for i, j := 0, 0; i < len(wide); i++ {
		if wide[i] > latest {
			// The window at latest holds wide[i:], plus wide[i-1] only
			// when that sits on latest, a window already counted.
			return max(best, len(wide)-i)
		}
		for j < len(wide) && wide[j] < wide[i]+w {
			j++
		}
		best = max(best, j-i)
	}
	return best
}
