package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesRegistry holds the committed BENCHMARK.json to the
// registry, so the two cannot drift apart, and the registry to the
// driver's limits on names, units and counts.
func TestManifestMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed manifest
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(committed, want) {
		t.Fatalf("BENCHMARK.json differs from the registry; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		unique(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	sawSetup := false
	for _, d := range endToEnd {
		unique(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			sawSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, d := range perLayer {
		unique(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

// TestSmoke runs every workload at a fiftieth of its size and checks that
// each emits exactly the registered metrics, each with its unit, and that
// every correctness gate passes. A traced run goes through all four
// sections whichever workload it names, so two of them (one per scan
// section that can own the kernel stages) cover the traced code.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.Name != "scan_replay_guarded" && w.Name != "serve_mixed" {
				continue
			}
			e, err := newEnv(1, 0.05, 0.02, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runWorkload(e, w.Name, traced)
			if err != nil {
				t.Fatalf("trace=%v: %v", traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d registered", w.Name, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, traced, d.Name, m.Unit, d.Unit)
				}
			}
			// Failed is not asserted: a request shed while other packages'
			// tests hold the cores is load, not a defect.
			if r.Attempted < 1 || r.Failed > r.Attempted || !r.Correct {
				t.Errorf("%s trace=%v: attempted=%d failed=%d correct=%v", w.Name, traced, r.Attempted, r.Failed, r.Correct)
			}
			// The result line must survive the trip through JSON.
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			var back result
			if err := json.Unmarshal(line, &back); err != nil || len(back.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result line does not round-trip: %v", w.Name, traced, err)
			}
		}
	}
}
