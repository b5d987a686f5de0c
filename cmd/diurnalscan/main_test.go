package main

// The argv surface: every command line either parses into a runnable
// command, asks for help (exit 0), or is a usage error (exit 2) before
// any world is built. Then the exit codes end to end through run.

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runs marks an argv line that parses into a runnable command.
const runs = -1

func TestFlagMatrix(t *testing.T) {
	cases := []struct {
		name string
		argv string
		want int
	}{
		{"defaults", "scan", runs},
		{"negative workers", "scan -workers -2", exitUsage},
		{"explicit workers", "scan -workers 8", runs},
		{"negative quorum", "scan -quorum -1", exitUsage},
		{"hedge without breaker", "scan -hedge", exitUsage},
		{"hedge with breaker", "scan -hedge -breaker", runs},
		{"worker and merge", "worker -merge m w", exitUsage},
		{"shards without worker", "scan -shards 4", exitUsage},
		{"worker with shards", "worker -shards 4 w", runs},

		// The daemon rows of the matrix.
		{"daemon alone", "daemon d", runs},
		{"daemon with worker", "daemon -worker w d", exitUsage},
		{"daemon with merge", "daemon -merge m d", exitUsage},
		{"daemon with resume", "daemon -resume run.ckpt d", exitUsage},
		{"daemon with breaker", "daemon -breaker d", exitUsage},
		{"daemon tuning flags", "daemon -roundlen 6h -refresh 4 -confirm 3 -maxqueue 16 -watchdog 1m d", runs},
		{"roundlen without daemon", "scan -roundlen 6h", exitUsage},
		{"refresh without daemon", "scan -refresh 7", exitUsage},
		{"watchdog without daemon", "scan -watchdog 1m", exitUsage},
		{"daemon bad roundlen", "daemon -roundlen 90m d", exitUsage},
		{"daemon zero watchdog set", "daemon -watchdog 0 d", exitUsage},
		{"verify with daemon", "verify -daemon d v", exitUsage},
		{"serve with snapshot", "serve :8080 snaps", runs},
		{"serve tuning flags", "serve -inflight 128 -reqtimeout 5s :8080 snaps", runs},
		{"serve without snapshot", "serve :8080", exitUsage},
		{"serve with daemon", "serve -daemon d :8080 snaps", exitUsage},
		{"serve with worker", "serve -worker w :8080 snaps", exitUsage},
		{"serve with verify", "serve -verify v :8080 snaps", exitUsage},
		{"serve with resume", "serve -resume run.ckpt :8080 snaps", exitUsage},
		{"serve bad inflight", "serve -inflight 0 :8080 snaps", exitUsage},
		{"serve zero reqtimeout set", "serve -reqtimeout 0 :8080 snaps", exitUsage},
		{"snapshot without serve", "scan -snapshot snaps", exitUsage},

		// Storage-governance rows: WAL sizing is daemon-only, retention
		// and the publish budget are serve-only, and the size floors hold.
		{"daemon governance flags", "daemon -walseg 65536 -walcompact 1048576 -diskbudget 16777216 d", runs},
		{"walseg without daemon", "scan -walseg 65536", exitUsage},
		{"walcompact without daemon", "scan -walcompact 1048576", exitUsage},
		{"diskbudget without daemon", "scan -diskbudget 16777216", exitUsage},
		{"daemon tiny walseg", "daemon -walseg 512 d", exitUsage},
		{"daemon zero diskbudget set", "daemon -diskbudget 0 d", exitUsage},
		{"serve governance flags", "serve -retain 3 -servebudget 16777216 :8080 snaps", runs},
		{"retain without serve", "scan -retain 3", exitUsage},
		{"servebudget without serve", "scan -servebudget 16777216", exitUsage},
		{"serve zero retain set", "serve -retain 0 :8080 snaps", exitUsage},
		{"inflight without serve", "scan -inflight 32", exitUsage},

		// Combinations the single flag set accepted and then ignored.
		{"daemon with workers", "daemon -workers 4 d", exitUsage},
		{"worker with workers", "worker -workers 4 w", exitUsage},
		{"serve with workers", "serve -workers 4 :8080 snaps", exitUsage},
		{"worker with breaker", "worker -breaker w", exitUsage},
		{"worker with hedge", "worker -hedge w", exitUsage},
		{"worker with quorum", "worker -quorum 3 w", exitUsage},
		{"merge with quorum", "merge -quorum 3 m", exitUsage},
		{"worker with save", "worker -save obs w", exitUsage},
		{"worker with report", "worker -report out.md w", exitUsage},
		{"worker with region", "worker -region CN-WUH w", exitUsage},
		{"worker with cells", "worker -cells 3 w", exitUsage},
		{"worker with days", "worker -days 3 w", exitUsage},
		{"serve with save", "serve -save obs :8080 snaps", exitUsage},
		{"serve with report", "serve -report out.md :8080 snaps", exitUsage},
		{"serve with region", "serve -region CN-WUH :8080 snaps", exitUsage},
		{"serve with cells", "serve -cells 3 :8080 snaps", exitUsage},
		{"serve with days", "serve -days 3 :8080 snaps", exitUsage},
		{"verify with blocks", "verify -blocks 24 v", exitUsage},
		{"verify with seed", "verify -seed 2 v", exitUsage},
		{"verify with observers", "verify -observers 2 v", exitUsage},
		{"verify with start", "verify -start 2020-01-08 v", exitUsage},
		{"verify with end", "verify -end 2020-01-29 v", exitUsage},
		{"verify with calendar", "verify -calendar none v", exitUsage},

		// Subcommands and their arguments.
		{"no subcommand", "", exitUsage},
		{"unknown subcommand", "explain 7", exitUsage},
		{"bare flag form", "-blocks 48 -region CN-WUH", exitUsage},
		{"daemon without dir", "daemon", exitUsage},
		{"daemon dir before flags", "daemon d -refresh 7", exitUsage},
		{"worker two ledgers", "worker a b", exitUsage},
		{"merge without ledger", "merge", exitUsage},
		{"serve extra argument", "serve :8080 snaps extra", exitUsage},
		{"scan with argument", "scan obs", exitUsage},
		{"verify without dir", "verify", exitUsage},
		{"worker with ledger", "worker -workerid w1 -lease 10s ledger", runs},
		{"merge with ledger", "merge -region CN-WUH -report out.md ledger", runs},
		{"verify with dir", "verify obs", runs},
		{"scan help", "scan -h", exitOK},
		{"serve help", "serve -help", exitOK},
		{"top-level help", "-h", exitOK},

		// Value checks on the world flags and the archive window.
		{"bad start", "scan -start 2020-13-01", exitUsage},
		{"bad calendar", "daemon -calendar 2021 d", exitUsage},
		{"save whole weeks", "scan -save obs -end 2020-01-29", runs},
		{"save partial week", "scan -save obs -end 2020-01-30", exitUsage},
		{"resume into missing directory", "scan -resume no/such/dir/run.ckpt", exitUsage},
		{"worker zero lease set", "worker -lease 0 w", exitUsage},
		{"worker negative shards", "worker -shards -1 w", exitUsage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd, got := parse(strings.Fields(tc.argv), io.Discard)
			if cmd != nil {
				got = runs
			}
			if got != tc.want {
				t.Errorf("diurnalscan %s: got %d, want %d (%d = runs)", tc.argv, got, tc.want, runs)
			}
		})
	}
}

// TestExitCodes drives run end to end: archive a store, verify it clean,
// corrupt it, verify it dirty; and the option errors that exit 2 before
// any world runs.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "obs")
	for _, tc := range []struct {
		argv string
		want int
	}{
		{"scan -observers 9", exitUsage},
		{"scan -blocks 0", exitUsage},
		{"scan -start 2020-02-01 -end 2020-01-01", exitUsage},
		{"scan -blocks 24 -save " + store + " -end 2020-01-30", exitUsage},
		{"verify " + dir, exitUsage},
	} {
		if got := run(strings.Fields(tc.argv)); got != tc.want {
			t.Errorf("diurnalscan %s = %d, want %d", tc.argv, got, tc.want)
		}
	}
	if _, err := os.Stat(store); !os.IsNotExist(err) {
		t.Fatalf("a rejected -save still wrote %s (stat: %v)", store, err)
	}

	if testing.Short() {
		t.Skip("runs a world in -short mode")
	}
	if got := run(strings.Fields("scan -blocks 24 -end 2020-01-29 -save " + store)); got != exitOK {
		t.Fatalf("scan -save = %d, want %d", got, exitOK)
	}
	if got := run([]string{"verify", store}); got != exitOK {
		t.Fatalf("verify of a fresh store = %d, want %d", got, exitOK)
	}
	logs, err := filepath.Glob(filepath.Join(store, "*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no observation logs under %s (%v)", store, err)
	}
	data, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(logs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"verify", store}); got != exitError {
		t.Errorf("verify after a flipped byte = %d, want %d", got, exitError)
	}
}
