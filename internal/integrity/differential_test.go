package integrity

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// checkCase is one full argument list of Check.
type checkCase struct {
	cfg        Config
	perObs     [][]probe.Record
	eb         []int
	start, end int64
}

func (c *checkCase) check() []Verdict {
	return Check(c.cfg, c.perObs, c.eb, c.start, c.end)
}
func (c *checkCase) reference() []Verdict {
	return checkReference(c.cfg, c.perObs, c.eb, c.start, c.end)
}

func isOrdered(records []probe.Record) bool {
	return sort.SliceIsSorted(records, func(i, j int) bool { return records[i].T < records[j].T })
}

// truth is the shared ground state the generated observers report on:
// whether addr answers during the hour holding t.
func truth(seed uint64, addr int, t int64) bool {
	h := seed ^ uint64(addr)*0x9e3779b97f4a7c15 ^ uint64(t/3600)*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return h>>60 < 6
}

// trinocularStream fabricates what an honest observer reports over
// [start, end): a round every 11 minutes from its phase, walking E(b) in
// order from a cursor until the first positive reply (at most 16 probes),
// every probe of a round sharing the round's timestamp.
func trinocularStream(seed uint64, eb []int, start, end, phase int64) []probe.Record {
	var out []probe.Record
	cursor := int(phase) % len(eb)
	for t := start + phase; t < end; t += 660 {
		for k := 0; k < 16 && k < len(eb); k++ {
			addr := eb[cursor]
			cursor = (cursor + 1) % len(eb)
			up := truth(seed, addr, t)
			out = append(out, probe.Record{T: t, Addr: uint8(addr), Up: up})
			if up {
				break
			}
		}
	}
	return out
}

// wildTimes are timestamps at the ends of the int64 range and 2^56 apart,
// where bucket arithmetic wraps and the duplicate key (56 bits of T)
// collides.
var wildTimes = []int64{
	math.MinInt64, math.MinInt64 + 1, -1 << 56, -1 << 55, -1<<55 - 1,
	1<<55 - 1, 1 << 55, 1 << 56, math.MaxInt64 - 1, math.MaxInt64,
}

// genCase draws one differential case. Every observer starts from an
// honest Trinocular-like stream over the nominal window and is then,
// mostly, damaged the way one of the attacks or a sloppy caller would.
func genCase(rng *rand.Rand) checkCase {
	var c checkCase
	c.cfg.bucketSeconds = []int64{600, 900, 3600, 7200, 86400, 90000}[rng.Intn(6)]
	if rng.Intn(4) == 0 {
		c.cfg.bucketSeconds = 600 + rng.Int63n(89401)
	}
	if rng.Intn(3) == 0 {
		c.cfg.minOverlap = 1 + rng.Intn(6)
	}
	for _, a := range rng.Perm(256)[:1+rng.Intn(200)] {
		c.eb = append(c.eb, a)
	}
	sort.Ints(c.eb)
	members := c.eb
	if rng.Intn(10) == 0 {
		c.eb = append([]int{-1, 256, 1 << 20}, c.eb...) // ignored by Check
	}

	// Windows start negative, unaligned, or in 2020; they span a few
	// rounds to a few hundred buckets.
	c.start = []int64{-3_000_000, -7, 0, 1_577_836_800}[rng.Intn(4)] + rng.Int63n(100_000)
	span := 660 * (1 + rng.Int63n(400))
	if rng.Intn(3) == 0 {
		span = c.cfg.bucketSeconds * (1 + rng.Int63n(40))
	}
	c.end = c.start + span
	seed := rng.Uint64()
	nObs := 1 + rng.Intn(7)
	allBad := rng.Intn(12) == 0 // every stream trips a gate: nothing may be gated
	wild := false
	for oi := 0; oi < nObs; oi++ {
		s := trinocularStream(seed, members, c.start, c.end, rng.Int63n(660))
		kind := rng.Intn(14)
		if allBad {
			kind = 5 + rng.Intn(3)
		}
		switch kind {
		case 0: // empty
			s = nil
		case 1: // under minRecords
			s = s[:min(len(s), rng.Intn(32))]
		case 2: // shuffled
			rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		case 3, 4: // duplicate flood, appended; re-sorted or left as a replayed tail
			for n := 1 + rng.Intn(len(s)/4+1); n > 0 && len(s) > 0; n-- {
				s = append(s, s[rng.Intn(len(s))])
			}
			if kind == 3 {
				sort.SliceStable(s, func(i, j int) bool { return s[i].T < s[j].T })
			}
		case 5: // part of the stream shifted out of the window
			shift := span * int64(rng.Intn(5)-2)
			for i := range s[:rng.Intn(len(s)+1)] {
				s[i].T += shift + int64(rng.Intn(3)-1)
			}
		case 6: // addresses outside E(b)
			for n := rng.Intn(len(s)/3 + 1); n > 0; n-- {
				s[rng.Intn(len(s))].Addr = uint8(rng.Intn(256))
			}
		case 7: // duplicate flood in place: repeats inside the timestamp run
			for i := 1; i < len(s); i++ {
				if rng.Intn(3) == 0 {
					s[i] = s[i-1]
				}
			}
		case 8: // rate-limit cliff: most positives never arrive
			for i := range s {
				if rng.Intn(8) != 0 {
					s[i].Up = false
				}
			}
		case 9: // liar: contradicts the shared truth
			for i := range s {
				if rng.Intn(6) != 0 {
					s[i].Up = !s[i].Up
				}
			}
		case 10: // a few records at the ends of the int64 range, in time order
			for n := 1 + rng.Intn(4); n > 0; n-- {
				r := probe.Record{T: wildTimes[rng.Intn(len(wildTimes))], Addr: uint8(members[0]), Up: true}
				s = append(s, r, r)
			}
			sort.SliceStable(s, func(i, j int) bool { return s[i].T < s[j].T })
			wild = true
		}
		c.perObs = append(c.perObs, s)
	}

	// The window as a caller may hand it over: empty, inverted, shorter
	// than a bucket, or far looser than the data (the tables must follow
	// the data, not the window — so never with wild timestamps inside).
	switch rng.Intn(16) {
	case 0:
		c.end = c.start
	case 1:
		c.end = c.start - rng.Int63n(1_000_000)
	case 2:
		c.end = c.start + 1 + rng.Int63n(c.cfg.bucketSeconds)
	case 3:
		if !wild {
			c.start, c.end = math.MinInt64, math.MaxInt64
		}
	}
	return c
}

// TestCheckMatchesReference holds the dense, bit-sliced Check to the map
// implementation it replaced, verdict for verdict, and proves the cases
// reach the rare paths: the disordered-stream duplicate recount and each
// peer-dependent outcome.
func TestCheckMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var recount, disagreement, replyRate, allSuspect, gated int
	for i := 0; i < 3000; i++ {
		c := genCase(rng)
		got, want := c.check(), c.reference()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (bucket %d, window [%d,%d), %d observers):\n got %+v\nwant %+v",
				i, c.cfg.bucketSeconds, c.start, c.end, len(c.perObs), got, want)
		}
		suspects, judged := 0, 0
		for oi, v := range got {
			if v.Records >= 32 { // genCase leaves minRecords at its default
				judged++
				if !isOrdered(c.perObs[oi]) && v.Duplicates > 0 {
					recount++
				}
			}
			if v.Suspect {
				suspects++
			}
			if v.Gated {
				gated++
			}
			switch v.Reason {
			case "disagreement":
				disagreement++
			case "reply-rate":
				replyRate++
			}
		}
		if judged > 1 && suspects == judged {
			allSuspect++
			for _, v := range got {
				if v.Gated {
					t.Fatalf("case %d: every judged stream suspect, yet observer %d gated", i, v.Observer)
				}
			}
		}
	}
	t.Logf("recount %d, disagreement %d, reply-rate %d, all-suspect %d, gated %d", recount, disagreement, replyRate, allSuspect, gated)
	for name, n := range map[string]int{
		"disordered streams recounted with duplicates": recount,
		"disagreement verdicts":                        disagreement,
		"reply-rate verdicts":                          replyRate,
		"all-suspect blocks":                           allSuspect,
		"gated streams":                                gated,
	} {
		if n == 0 {
			t.Errorf("the cases never produced %s", name)
		}
	}
}

// fuzzCase decodes arbitrary bytes into a Check call. An 8-byte header
// picks observers, bucket size, window (possibly empty or inverted) and
// E(b); every following 4 bytes are one record: observer, up flag and how
// its timestamp moves from that observer's previous one (forward, back,
// same, or to one of wildTimes), a 16-bit step, and the address. The
// window is at most 65 535 × 61 s, which bounds the vote tables.
func fuzzCase(data []byte) checkCase {
	var hdr [8]byte
	copy(hdr[:], data)
	data = data[min(len(data), len(hdr)):]
	var c checkCase
	c.cfg.bucketSeconds = []int64{600, 601, 3600, 86400, 90000}[hdr[1]%5]
	c.cfg.minRecords = []int{0, 1, 4}[hdr[6]%3]
	c.cfg.minOverlap = int(hdr[6] / 3 % 3)
	c.start = int64(int16(binary.LittleEndian.Uint16(hdr[2:]))) * 997
	c.end = c.start + int64(binary.LittleEndian.Uint16(hdr[4:]))*61 - 500
	for a := 0; a < 256; a += 1 + int(hdr[7]%5) {
		c.eb = append(c.eb, a)
	}
	c.perObs = make([][]probe.Record, 1+hdr[0]%7)
	last := make([]int64, len(c.perObs))
	for i := range last {
		last[i] = c.start
	}
	for ; len(data) >= 4; data = data[4:] {
		oi := int(data[0]&7) % len(c.perObs)
		step := int64(binary.LittleEndian.Uint16(data[1:]))
		switch data[0] >> 4 & 3 {
		case 0:
			last[oi] += step
		case 1:
			last[oi] -= step
		case 3:
			last[oi] = wildTimes[step%int64(len(wildTimes))]
		}
		c.perObs[oi] = append(c.perObs[oi], probe.Record{T: last[oi], Addr: data[3], Up: data[0]&8 != 0})
	}
	return c
}

// FuzzCheck feeds Check streams no generator would think of: it must not
// panic and must agree with the reference on every one.
func FuzzCheck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 0, 0xff, 0xff, 1, 0})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 8+4*rng.Intn(400))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzCase(data)
		if got, want := c.check(), c.reference(); !reflect.DeepEqual(got, want) {
			t.Fatalf("window [%d,%d), bucket %d:\n got %+v\nwant %+v", c.start, c.end, c.cfg.bucketSeconds, got, want)
		}
	})
}

// TestCheckConcurrent runs Check from many goroutines at once, as the
// pipeline's workers do through one shared integrityProber, over blocks
// of different shapes so the pooled tables are re-sliced and re-cleared
// between calls. A vote surviving from another block's table shows up as
// a verdict differing from the reference.
func TestCheckConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := make([]checkCase, 24)
	want := make([][]Verdict, len(cases))
	for i := range cases {
		cases[i] = genCase(rng)
		want[i] = cases[i].reference()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (n*(2*g+1) + g) % len(cases)
				if got := cases[i].check(); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d call %d case %d:\n got %+v\nwant %+v", g, n, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// quarterCase is the shape of one guarded block in the benchmark: four
// observers, twelve weeks of 11-minute rounds over a 48-address E(b),
// about 110 000 records, every stream in time order.
func quarterCase() checkCase {
	c := checkCase{start: 1_577_836_800, end: 1_577_836_800 + 84*86400}
	for a := 0; a < 240; a += 5 {
		c.eb = append(c.eb, a)
	}
	for oi := int64(0); oi < 4; oi++ {
		c.perObs = append(c.perObs, trinocularStream(42, c.eb, c.start, c.end, 150*oi))
	}
	return c
}

// TestCheckSteadyStateAllocs pins the scratch reuse: once the pool is
// warm a call on ordered streams allocates the verdicts and little else.
func TestCheckSteadyStateAllocs(t *testing.T) {
	c := quarterCase()
	c.check()
	if allocs := testing.AllocsPerRun(10, func() { c.check() }); allocs > 8 {
		t.Errorf("%.1f allocations per call with a warm pool, want at most 8", allocs)
	}
}

var benchSink []Verdict

func BenchmarkCheck(b *testing.B) {
	c := quarterCase()
	n := 0
	for _, s := range c.perObs {
		n += len(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = c.check()
	}
	b.ReportMetric(float64(n), "records")
}

func BenchmarkCheckReference(b *testing.B) {
	c := quarterCase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = c.reference()
	}
}
