package outage

import (
	"math"
	"math/rand"
	"testing"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// certParams are the parameter sets the certificate is checked under: the
// defaults, a tuned set, a lie rate above most availabilities, thresholds
// close together, and a ceiling too close to 1 to certify.
var certParams = []Params{
	{},
	{UpThreshold: 0.95, DownThreshold: 0.2, LieProbability: 0.05, BeliefFloor: 0.001, BeliefCeiling: 0.999},
	{LieProbability: 0.6},
	{UpThreshold: 0.5, DownThreshold: 0.45, BeliefCeiling: 0.97},
	{BeliefCeiling: 0.99999},
}

// plantedResponses draws a stream at reply rate a with planted outages
// (long silences) and streaks of silence about as long as it takes the
// belief to reach the down threshold, so segments come close to it from
// both sides.
func plantedResponses(rng *rand.Rand, n int, a float64) []probe.Record {
	recs := make([]probe.Record, 0, n)
	t := int64(rng.Intn(1000))
	add := func(up bool) {
		recs = append(recs, probe.Record{T: t, Up: up})
		if rng.Intn(4) != 0 {
			t += int64(1 + rng.Intn(700))
		}
	}
	for len(recs) < n {
		switch rng.Intn(8) {
		case 0:
			for k := 50 + rng.Intn(400); k > 0; k-- {
				add(rng.Intn(50) == 0)
			}
		case 1, 2:
			for k := 2 + rng.Intn(25); k > 0; k-- {
				add(false)
			}
		default:
			for k := 1 + rng.Intn(200); k > 0; k-- {
				add(rng.Float64() < a)
			}
		}
	}
	return recs[:n]
}

// checkCertificate appends a planted stream to a trace in random pieces
// and, between pieces, replays it into detectors at availabilities inside
// the certificate's interval, at its ends, just outside it and beyond the
// detector's clamp — new detectors, now and then one with other parameters
// and now and then one that has seen other records first: each must end exactly where the same detector fed
// every record does. It returns how many records certified replays
// skipped.
func checkCertificate(t *testing.T, rng *rand.Rand) int {
	t.Helper()
	params := certParams[rng.Intn(len(certParams))]
	a0 := 0.02 + 0.97*rng.Float64()
	recs := plantedResponses(rng, 1+rng.Intn(6000), a0)
	var tr Trace
	var buf []probe.Record
	for n := 0; n < len(recs); {
		k := min(len(recs)-n, 1+rng.Intn(1500))
		tr.Append(recs[n : n+k])
		n += k
		c := tr.cert
		avails := []float64{a0, 0.01, 0.995, 1, 0.05 + 0.94*rng.Float64()}
		if c.ok {
			w := c.hi - c.lo
			avails = append(avails, c.lo, c.hi, c.lo+w*rng.Float64(),
				math.Nextafter(c.lo, 0), math.Nextafter(c.hi, 1), c.lo*(1-1e-3), c.hi*(1+1e-3))
		}
		for range 2 + rng.Intn(3) {
			a, ps := avails[rng.Intn(len(avails))], params
			if rng.Intn(5) == 0 {
				ps = certParams[rng.Intn(len(certParams))]
			}
			want, err := NewDetector(a, ps)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := NewDetector(a, ps)
			if rng.Intn(4) == 0 {
				seen := plantedResponses(rng, 1+rng.Intn(50), a)
				want.ObserveAll(seen)
				got.ObserveAll(seen)
			}
			want.ObserveAll(recs[:n])
			buf = tr.Replay(got, buf)
			if !sameDetector(got, want) {
				t.Fatalf("params %+v, availability %v (certificate %v [%v, %v]), %d records: replayed belief %v, state %v, outages %v; fed %v, %v, %v",
					ps, a, c.ok, c.lo, c.hi, n, got.belief, got.state, got.outages, want.belief, want.state, want.outages)
			}
		}
	}
	_, skipped := tr.Certified()
	return skipped
}

// TestTraceCertificate runs checkCertificate over many streams, and
// requires the certified replays to have skipped records: the healthy
// stretches between planted outages are quiet.
func TestTraceCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	skipped := 0
	for trial := 0; trial < 300; trial++ {
		skipped += checkCertificate(t, rng)
	}
	if skipped == 0 {
		t.Error("no certified replay skipped a record")
	}
}

// FuzzTraceCertificate: certified replays equal the detector fed every
// record, for random streams appended in random pieces.
//
//	go test -run '^$' -fuzz FuzzTraceCertificate ./internal/outage
func FuzzTraceCertificate(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 33, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkCertificate(t, rand.New(rand.NewSource(seed)))
	})
}

// TestCertificateSegments: on a stream that is healthy but for one planted
// outage, a certified replay walks only the segment around the outage and
// the tail, and the segment-length cap makes an unbroken silence loud.
func TestCertificateSegments(t *testing.T) {
	recs := make([]probe.Record, 0, 30000)
	for i := 0; i < cap(recs); i++ {
		up := i%3 != 0
		if i >= 10000 && i < 10040 {
			up = false
		}
		recs = append(recs, probe.Record{T: int64(i) * 60, Up: up})
	}
	var tr Trace
	tr.Append(recs[:20000])
	d, _ := NewDetector(2.0/3, Params{})
	tr.Replay(d, nil)
	if certs, _ := tr.Certified(); certs != 1 {
		t.Fatalf("%d certifications, want 1", certs)
	}
	tr.Append(recs[20000:])
	got, _ := NewDetector(2.0/3, Params{})
	tr.Replay(got, nil)
	want, _ := NewDetector(2.0/3, Params{})
	want.ObserveAll(recs)
	if !sameDetector(got, want) || len(want.outages) != 1 {
		t.Fatalf("replayed %v, %v, %v; fed %v, %v, %v", got.belief, got.state, got.outages, want.belief, want.state, want.outages)
	}
	if len(tr.cert.loud) != 1 {
		t.Fatalf("loud segments %v, want the one around the outage", tr.cert.loud)
	}
	if s := tr.cert.loud[0]; s.from.i > 10000 || s.to <= 10040 || s.to-s.from.i > 100 {
		t.Errorf("loud segment [%d, %d), want a short one around [10000, 10040)", s.from.i, s.to)
	}
	if _, skipped := tr.Certified(); skipped < len(recs)-200 {
		t.Errorf("skipped %d of %d records", skipped, len(recs))
	}

	// A silence longer than the cap, then replies: the bound restarts at
	// the floor, climbs back to an anchor, and the segment is loud.
	tr.Reset()
	silent := make([]probe.Record, certSegment+10)
	for i := range silent {
		silent[i] = probe.Record{T: int64(i), Up: i > certSegment}
	}
	tr.Append(silent)
	d, _ = NewDetector(0.5, Params{})
	tr.Replay(d, nil)
	if loud := tr.cert.loud; len(loud) != 1 || loud[0].from.i != 0 || loud[0].to <= certSegment {
		t.Errorf("after a silence past the cap: loud segments %v", loud)
	}
}
