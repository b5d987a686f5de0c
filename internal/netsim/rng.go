// Package netsim models the IPv4 edge at the /24-block level: 256 address
// processes per block (diurnal workers, evening home users, always-on
// servers and NAT front doors, intermittent hosts, firewalled space) plus
// a schedule of real-world events (work-from-home onsets, holidays,
// curfews, outages, renumbering). It is the synthetic stand-in for the
// live Internet that the paper probes with Trinocular (§2.2): the probing
// and analysis layers above see only (time, address, responded?) tuples,
// exactly as they would from real ICMP scans.
//
// Every address's state is a pure function of (block seed, address index,
// time), so probers evaluate only the addresses they touch and the whole
// simulation is deterministic for a given seed.
package netsim

// splitmix64 advances a SplitMix64 state and returns the next value. It is
// the mixing core for both the stateless hash and the stateful stream.
func splitmix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 mixes an arbitrary number of 64-bit values into one, suitable for
// deterministic per-(block, address, day) decisions.
func Hash64(parts ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3) // pi fractional bits: arbitrary odd seed
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return h
}

// HashUnit maps Hash64 of the parts onto [0, 1).
func HashUnit(parts ...uint64) float64 {
	return float64(Hash64(parts...)>>11) / float64(1<<53)
}

// RNG is a small deterministic pseudorandom stream (SplitMix64).
type RNG struct {
	state uint64
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("netsim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a pseudorandom permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
