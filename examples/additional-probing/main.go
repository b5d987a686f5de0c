// additional-probing: why dense blocks need extra probes (§2.8).
//
// Trinocular stops probing a block at the first positive response, so a
// block where most addresses always respond is re-scanned very slowly —
// too slowly to see its diurnal swing. The paper's fix is a designed
// observer that sends up to four extra probes per round even after a
// positive. This example classifies a dense campus block under standard
// probing, then with the additional observer, and shows the diurnal
// signal reappear.
//
//	go run ./examples/additional-probing
package main

import (
	"fmt"
	"log"
	"sort"

	"github.com/diurnalnet/diurnal"
	"github.com/diurnalnet/diurnal/internal/experiments"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

func main() {
	start := diurnal.Date(2020, 1, 1)
	end := diurnal.Date(2020, 1, 29)

	// A dense campus block: 160 always-on addresses hide 80 diurnal
	// desktops from a stop-on-first-positive prober.
	block, err := netsim.NewBlock(0x801010, 9, netsim.Spec{Workers: 80, AlwaysOn: 160})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dense block %v: |E(b)| = %d, %d always-on\n\n", block.ID, len(block.EverActive()), 160)

	cfg := diurnal.DefaultConfig(start, end)

	run := func(label string, engine *diurnal.Engine) {
		a, err := diurnal.AnalyzeBlock(cfg, engine, block)
		if err != nil {
			log.Fatal(err)
		}
		perObs, err := engine.Collect(block, start, start+4*diurnal.SecondsPerDay)
		if err != nil {
			log.Fatal(err)
		}
		scans := experiments.ScanTimes(perObs, block.EverActive())
		med := "never"
		if len(scans) > 0 {
			sort.Slice(scans, func(i, j int) bool { return scans[i] < scans[j] })
			med = fmt.Sprintf("%.1f h", float64(scans[len(scans)/2])/3600)
		}
		fmt.Printf("%s\n", label)
		fmt.Printf("  median full-block scan: %s\n", med)
		fmt.Printf("  diurnal score %.2f (SNR %.0f) -> change-sensitive: %v\n\n",
			a.Class.DiurnalScore, a.Class.SNR, a.Class.ChangeSensitive)
	}

	// One standard observer: scans crawl at ~one address per round.
	run("1 standard observer (stop on first positive):",
		&diurnal.Engine{Observers: probe.StandardObservers(1), QuarterSeed: 3})

	// Standard observer plus the §2.8 designed observer with 4 extra
	// probes per round.
	extra := probe.StandardObservers(2)
	extra[1].Name = "x"
	extra[1].Extra = 4
	run("standard observer + additional-observation prober (Extra=4):",
		&diurnal.Engine{Observers: extra, QuarterSeed: 3})

	fmt.Println("the additional observer restores sub-6-hour scans and the diurnal classification")
}
