package experiments

import "github.com/diurnalnet/diurnal/internal/probe"

// referenceScanTimes is the parent commit's ScanTimes of package
// reconstruct, verbatim apart from its name: scan durations over a
// materialised merged stream. ScanTimes, which walks the per-observer
// streams with the kernel's cursor instead, is held to it in scans_test.go.
func referenceScanTimes(merged []probe.Record, eb []int) []int64 {
	if len(eb) == 0 || len(merged) == 0 {
		return nil
	}
	inEB := make(map[int]bool, len(eb))
	for _, a := range eb {
		inEB[a] = true
	}
	seen := make(map[int]bool, len(eb))
	var out []int64
	scanStart := merged[0].T
	for _, r := range merged {
		a := int(r.Addr)
		if !inEB[a] {
			continue
		}
		seen[a] = true
		if len(seen) == len(inEB) {
			out = append(out, r.T-scanStart)
			seen = make(map[int]bool, len(eb))
			scanStart = r.T
		}
	}
	return out
}
