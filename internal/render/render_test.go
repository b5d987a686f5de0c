package render

import (
	"strings"
	"testing"

	"github.com/diurnalnet/diurnal/internal/geo"
)

func TestWorldMapBasics(t *testing.T) {
	values := map[geo.CellKey]int{
		geo.CellOf(30.9, 114.9):  50,
		geo.CellOf(48.0, 2.0):    10,
		geo.CellOf(-33.0, 151.0): 3,
	}
	out := WorldMap(values)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + 16 latitude rows + scale line.
	if len(lines) != 18 {
		t.Fatalf("map has %d lines, want 18:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "█") {
		t.Error("densest cell should render the heaviest glyph")
	}
	if !strings.Contains(out, "scale:") {
		t.Error("missing scale legend")
	}
	// Labels on both hemispheres.
	if !strings.Contains(out, "N ") || !strings.Contains(out, "S ") {
		t.Error("missing hemisphere labels")
	}
}

func mapBody(out string) string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	return strings.Join(lines[1:len(lines)-1], "\n") // drop header + legend
}

func TestWorldMapEmpty(t *testing.T) {
	out := WorldMap(nil)
	if !strings.Contains(out, "scale:") {
		t.Fatal("empty map should still render a frame")
	}
	if strings.ContainsAny(mapBody(out), "░▒▓█") {
		t.Fatal("empty map must not contain intensity glyphs")
	}
}

func TestWorldMapOutOfRangeIgnored(t *testing.T) {
	values := map[geo.CellKey]int{
		{Lat: 44, Lon: 0}: 9, // 88-90N: off the map
	}
	out := WorldMap(values)
	if strings.ContainsAny(mapBody(out), "░▒▓█") {
		t.Fatal("polar cell should be ignored")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if len([]rune(s)) != 8 {
		t.Fatalf("width = %d, want 8", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Fatalf("ends wrong: %q", s)
	}
	// Monotone input gives monotone glyphs.
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Fatalf("sparkline not monotone: %q", s)
		}
	}
}

func TestSparklineDownsamplesPreservingPeaks(t *testing.T) {
	series := make([]float64, 100)
	series[42] = 10 // lone peak
	s := []rune(Sparkline(series, 10))
	if len(s) != 10 {
		t.Fatalf("width = %d", len(s))
	}
	found := false
	for _, r := range s {
		if r == '█' {
			found = true
		}
	}
	if !found {
		t.Fatalf("peak lost in downsampling: %q", string(s))
	}
}

func TestSparklineEdgeCases(t *testing.T) {
	if Sparkline(nil, 10) != "" {
		t.Error("empty series should render empty")
	}
	if Sparkline([]float64{1}, 0) != "" {
		t.Error("zero width should render empty")
	}
	flat := Sparkline([]float64{0, 0, 0}, 3)
	if flat != "▁▁▁" {
		t.Errorf("flat zero series = %q", flat)
	}
}
