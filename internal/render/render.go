// Package render draws text visualizations of pipeline results: a world
// map of gridcell intensities (the textual cousin of the paper's Figure 7
// bubble map and the covid.ant.isi.edu website) and compact sparklines for
// daily change-fraction series.
package render

import (
	"fmt"
	"strings"

	"github.com/diurnalnet/diurnal/internal/geo"
)

// intensity glyphs from empty to dense.
var glyphs = []rune{'·', '░', '▒', '▓', '█'}

// WorldMap renders per-gridcell values on a fixed-size ASCII map spanning
// latitude 72N..56S and longitude 180W..180E. Each character cell covers
// 8° of latitude and 6° of longitude (aggregating sixteen 2×2° gridcells);
// its glyph scales with the summed value. Cells without data render as
// spaces over ocean and '·' is reserved for zero-valued data.
func WorldMap(values map[geo.CellKey]int) string {
	const (
		latTop    = 72  // degrees north, top row
		latBottom = -56 // degrees north, bottom row
		latStep   = 8
		lonLeft   = -180
		lonStep   = 6
		cols      = 360 / lonStep
	)
	rows := (latTop - latBottom) / latStep
	grid := make([][]int, rows)
	for r := range grid {
		grid[r] = make([]int, cols)
		for c := range grid[r] {
			grid[r][c] = -1 // no data
		}
	}
	max := 0
	for cell, v := range values {
		lat, lon := cell.Center()
		if lat > latTop || lat < latBottom {
			continue
		}
		r := int((latTop - lat) / latStep)
		c := int((lon - lonLeft) / lonStep)
		if r < 0 || r >= rows || c < 0 || c >= cols {
			continue
		}
		if grid[r][c] < 0 {
			grid[r][c] = 0
		}
		grid[r][c] += v
		if grid[r][c] > max {
			max = grid[r][c]
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "    %s180W%s0%s180E\n", "", strings.Repeat(" ", cols/2-5), strings.Repeat(" ", cols/2-5))
	for r := 0; r < rows; r++ {
		lat := latTop - r*latStep - latStep/2
		fmt.Fprintf(&b, "%4s", latLabel(lat))
		for c := 0; c < cols; c++ {
			v := grid[r][c]
			switch {
			case v < 0:
				b.WriteByte(' ')
			case v == 0:
				b.WriteRune(glyphs[0])
			default:
				idx := 1 + (len(glyphs)-2)*v/max
				if idx >= len(glyphs) {
					idx = len(glyphs) - 1
				}
				b.WriteRune(glyphs[idx])
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "    scale: '%c' = 0, '%c'..'%c' up to %d per map cell\n",
		glyphs[0], glyphs[1], glyphs[len(glyphs)-1], max)
	return b.String()
}

func latLabel(lat int) string {
	switch {
	case lat > 0:
		return fmt.Sprintf("%dN ", lat)
	case lat < 0:
		return fmt.Sprintf("%dS ", -lat)
	default:
		return "0 "
	}
}

// sparkGlyphs are the eight block heights of a sparkline.
var sparkGlyphs = []rune{'▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'}

// Sparkline renders a numeric series as a one-line unicode sparkline,
// downsampling (by max) to at most width characters. An empty series
// renders as an empty string.
func Sparkline(series []float64, width int) string {
	if len(series) == 0 || width <= 0 {
		return ""
	}
	// Downsample by taking the max of each chunk, preserving peaks.
	n := len(series)
	if width > n {
		width = n
	}
	chunks := make([]float64, width)
	for i := 0; i < width; i++ {
		lo := i * n / width
		hi := (i + 1) * n / width
		if hi <= lo {
			hi = lo + 1
		}
		m := series[lo]
		for _, v := range series[lo:hi] {
			if v > m {
				m = v
			}
		}
		chunks[i] = m
	}
	max := 0.0
	for _, v := range chunks {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range chunks {
		if max == 0 {
			b.WriteRune(sparkGlyphs[0])
			continue
		}
		idx := int(v / max * float64(len(sparkGlyphs)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkGlyphs) {
			idx = len(sparkGlyphs) - 1
		}
		b.WriteRune(sparkGlyphs[idx])
	}
	return b.String()
}
