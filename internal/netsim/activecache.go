package netsim

// ActiveCache memoizes the hash draws behind Block.Active for one
// consumer. Address state is a pure function of (seed, addr, t), so every
// cached value is recomputed with exactly the HashUnit calls Block.Active
// would have made — results are bit-identical by construction, and an
// equivalence test (activecache_test.go) sweeps event-rich worlds to hold
// the contract.
//
// The win comes from the probing workload's access pattern: an engine
// replays the same timestamp for up to 16+ probes per round and walks the
// same day for ~130 rounds, while the underlying decisions change only per
// (address, day), per renumbering generation, or per 3-hour duty slot.
// Caching those draws turns most Active calls into a handful of array
// loads and compares.
//
// An ActiveCache is NOT safe for concurrent use; create one per goroutine
// (probe.Engine does so per collection). It assumes the block's event
// schedule does not change while the cache is live.
type ActiveCache struct {
	b     *Block
	kinds [256]AddressKind // b.kinds, one load away on the probe path

	// direct disables caching entirely (event classes too large for the
	// adoption bitmasks); every call falls through to Block.Active.
	direct bool

	// Event schedule, classified once. Index slices point into b.events;
	// adoption values are pre-resolved so the per-address mask fill does
	// not re-branch on Event.Adoption == 0.
	wfhIdx, holIdx []int
	wfhAdoption    []float64
	holAdoption    []float64
	outEvents      []Event
	renStarts      []int64

	// Dormancy: the phase hash is t-independent; the epoch coin is cached
	// per epoch.
	dormEpochLen int64
	dormPhase    int64
	dormEpoch    int64
	dormOK       bool
	dormVal      float64

	// Per-timestamp block state, refreshed when t changes. validUntil is
	// the first instant after lastT where anything besides sod could
	// change (event/renumber boundary, day or 3h-slot rollover, dormancy
	// epoch edge); forward moves inside the horizon only bump sod.
	lastT      int64
	validUntil int64
	tOK        bool
	out        bool
	gen        uint64
	inGap      bool
	day        int64
	sod        int64
	slot3h     int64
	weekend    bool
	dorm       float64
	wfhActive  uint64 // bit j set when events[wfhIdx[j]] covers lastT
	holActive  uint64

	// Per-address WFH/holiday adoption masks (t-independent), lazily
	// filled on first touch of each address.
	maskSet  bitset256
	wfhAdopt [256]uint64
	holAdopt [256]uint64

	// Per-(address, generation) draws.
	genSet  bitset256
	wgen    [256]workerGenDraws
	homeSet bitset256
	hgen    [256]homeGenDraws

	// Per-(address, generation, day) draws.
	daySet  bitset256
	wday    [256]workerDayDraws
	hdaySet bitset256
	hday    [256]homeDayDraws

	// Intermittent duty coin per (address, generation, 3h slot).
	dutySet bitset256
	duty    [256]dutyDraw
}

type workerGenDraws struct {
	gen    uint64
	arrive int64 // workStart + habit, without the per-day jitter
	leave  int64
}

type homeGenDraws struct {
	gen      uint64
	weekHash float64 // HashUnit(seed, addr, gen, saltHomeWeek)
	eveStart int64
}

type workerDayDraws struct {
	day    int64
	gen    uint64
	off    bool // which salt the coin was drawn with
	coinOK bool
	jitOK  bool
	coin   float64
	jitter int64
}

type homeDayDraws struct {
	day  int64
	gen  uint64
	drop bool // daily dropout coin already compared against 0.93
}

type dutyDraw struct {
	slot int64
	gen  uint64
	up   bool
}

type bitset256 [4]uint64

func (s *bitset256) has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
func (s *bitset256) set(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }

// NewActiveCache returns a fresh cache over b's address processes.
func (b *Block) NewActiveCache() *ActiveCache {
	c := &ActiveCache{b: b, kinds: b.kinds}
	for i, e := range b.events {
		switch e.Kind {
		case EventWFH:
			c.wfhIdx = append(c.wfhIdx, i)
			c.wfhAdoption = append(c.wfhAdoption, e.adoption())
		case EventHoliday, EventCurfew:
			c.holIdx = append(c.holIdx, i)
			c.holAdoption = append(c.holAdoption, e.adoption())
		case EventOutage:
			c.outEvents = append(c.outEvents, e)
		case EventRenumber:
			c.renStarts = append(c.renStarts, e.Start)
		}
	}
	// The adoption masks are 64 bits wide; schedules beyond that (none of
	// the shipped scenarios come close) fall back to the direct path.
	if len(c.wfhIdx) > 64 || len(c.holIdx) > 64 {
		c.direct = true
		return c
	}
	if b.spec.DormantProb > 0 {
		c.dormEpochLen = int64(b.spec.dormantEpochDays) * SecondsPerDay
		c.dormPhase = int64(HashUnit(b.Seed, saltDormantPhase) * float64(c.dormEpochLen))
	}
	return c
}

// Active reports whether address addr responds at time t, bit-identical to
// c.Block().Active(addr, t).
func (c *ActiveCache) Active(addr int, t int64) bool {
	c.At(t)
	return c.ActiveNow(addr)
}

// At moves the cache to time t for the ActiveNow calls that follow. A
// caller probing many addresses at one instant (a probing round) sets the
// time once instead of once per address.
func (c *ActiveCache) At(t int64) {
	switch {
	case c.tOK && t == c.lastT:
	case c.tOK && t > c.lastT && t < c.validUntil:
		// Same day, slot, epoch, and event set: only the second-of-day
		// moves.
		c.sod += t - c.lastT
		c.lastT = t
	default:
		c.refreshT(t)
	}
}

// ActiveNow is Active at the time last set by At.
func (c *ActiveCache) ActiveNow(addr int) bool {
	if c.direct {
		return c.b.Active(addr, c.lastT)
	}
	kind := c.kinds[addr]
	if c.out {
		return false
	}
	if c.inGap && kind != AlwaysOn {
		return false
	}
	switch kind {
	case AlwaysOn:
		return true
	case Worker:
		return c.workerActive(addr)
	case HomeEvening:
		return c.homeActive(addr)
	case Intermittent:
		d := &c.duty[addr]
		if !c.dutySet.has(addr) || d.slot != c.slot3h || d.gen != c.gen {
			d.slot, d.gen = c.slot3h, c.gen
			d.up = HashUnit(c.b.Seed, uint64(addr), c.gen, uint64(c.slot3h), saltDuty) < duty
			c.dutySet.set(addr)
		}
		return d.up
	default: // Unused and Firewalled never respond
		return false
	}
}

// Block returns the block the cache was built over.
func (c *ActiveCache) Block() *Block { return c.b }

// refreshT recomputes the address-independent state for timestamp t: the
// outage/renumbering state, local calendar fields, the dormancy factor,
// and which WFH/holiday events are currently active.
func (c *ActiveCache) refreshT(t int64) {
	c.lastT, c.tOK = t, true
	c.out = false
	for _, e := range c.outEvents {
		if e.active(t) {
			c.out = true
			break
		}
	}
	c.gen, c.inGap = 0, false
	for _, start := range c.renStarts {
		if t >= start {
			c.gen++
			if t < start+renumberGapSeconds {
				c.inGap = true
			}
		}
	}
	local := t + c.b.spec.TZOffset
	c.day = DayIndex(local)
	c.sod = local - c.day*SecondsPerDay
	c.slot3h = floorDiv(local, 3*3600)
	wd := ((c.day+4)%7 + 7) % 7
	c.weekend = wd == 0 || wd == 6
	c.dorm = 1
	if c.dormEpochLen > 0 {
		epoch := floorDiv(t+c.dormPhase, c.dormEpochLen)
		if !c.dormOK || epoch != c.dormEpoch {
			c.dormEpoch, c.dormOK = epoch, true
			c.dormVal = 1
			if HashUnit(c.b.Seed, uint64(epoch), saltDormant) < c.b.spec.DormantProb {
				c.dormVal = 0.15
			}
		}
		c.dorm = c.dormVal
	}
	c.wfhActive = 0
	for j, i := range c.wfhIdx {
		if c.b.events[i].active(t) {
			c.wfhActive |= 1 << uint(j)
		}
	}
	c.holActive = 0
	for j, i := range c.holIdx {
		if c.b.events[i].active(t) {
			c.holActive |= 1 << uint(j)
		}
	}
	// Horizon: the earliest future instant where any field above could
	// change. Until then a forward move only shifts the second-of-day.
	vu := (c.day+1)*SecondsPerDay - c.b.spec.TZOffset
	if e := (c.slot3h+1)*3*3600 - c.b.spec.TZOffset; e < vu {
		vu = e
	}
	if c.dormEpochLen > 0 {
		if e := (c.dormEpoch+1)*c.dormEpochLen - c.dormPhase; e < vu {
			vu = e
		}
	}
	for i := range c.outEvents {
		vu = narrowHorizon(vu, t, c.outEvents[i].Start)
		vu = narrowHorizon(vu, t, c.outEvents[i].End)
	}
	for _, start := range c.renStarts {
		vu = narrowHorizon(vu, t, start)
		vu = narrowHorizon(vu, t, start+renumberGapSeconds)
	}
	for _, i := range c.wfhIdx {
		vu = narrowHorizon(vu, t, c.b.events[i].Start)
		vu = narrowHorizon(vu, t, c.b.events[i].End)
	}
	for _, i := range c.holIdx {
		vu = narrowHorizon(vu, t, c.b.events[i].Start)
		vu = narrowHorizon(vu, t, c.b.events[i].End)
	}
	c.validUntil = vu
}

// narrowHorizon pulls the horizon down to boundary when it lies strictly
// between t and the current horizon. A zero boundary (open-ended event)
// never narrows.
func narrowHorizon(vu, t, boundary int64) int64 {
	if boundary > t && boundary < vu {
		return boundary
	}
	return vu
}

// masks ensures the per-address adoption bitmasks are filled. The hashes
// are t-independent (per address and event index), so one fill serves the
// whole collection.
func (c *ActiveCache) masks(addr int) (wfh, hol uint64) {
	if !c.maskSet.has(addr) {
		var wm, hm uint64
		for j, i := range c.wfhIdx {
			if HashUnit(c.b.Seed, uint64(addr), uint64(i), saltWFH) < c.wfhAdoption[j] {
				wm |= 1 << uint(j)
			}
		}
		for j, i := range c.holIdx {
			if HashUnit(c.b.Seed, uint64(addr), uint64(i), saltHoliday) < c.holAdoption[j] {
				hm |= 1 << uint(j)
			}
		}
		c.wfhAdopt[addr], c.holAdopt[addr] = wm, hm
		c.maskSet.set(addr)
	}
	return c.wfhAdopt[addr], c.holAdopt[addr]
}

func (c *ActiveCache) workerActive(addr int) bool {
	wfh, hol := c.masks(addr)
	if wfh&c.wfhActive != 0 {
		return false
	}
	off := c.weekend || hol&c.holActive != 0
	wd := &c.wday[addr]
	if !c.daySet.has(addr) || wd.day != c.day || wd.gen != c.gen {
		*wd = workerDayDraws{day: c.day, gen: c.gen}
		c.daySet.set(addr)
	}
	if !wd.coinOK || wd.off != off {
		wd.off, wd.coinOK = off, true
		salt := saltPresent
		if off {
			salt = saltWeekend
		}
		wd.coin = HashUnit(c.b.Seed, uint64(addr), c.gen, uint64(c.day), salt)
	}
	prob := presenceProb
	if off {
		prob = c.b.spec.WeekendWorkProb
	}
	if wd.coin >= prob*c.dorm {
		return false
	}
	wg := &c.wgen[addr]
	if !c.genSet.has(addr) || wg.gen != c.gen {
		wg.gen = c.gen
		wg.arrive = workStart +
			int64(HashUnit(c.b.Seed, uint64(addr), c.gen, saltArrive)*5400)
		wg.leave = workEnd +
			int64(HashUnit(c.b.Seed, uint64(addr), c.gen, saltLeave)*7200)
		c.genSet.set(addr)
	}
	if !wd.jitOK {
		wd.jitOK = true
		wd.jitter = int64(HashUnit(c.b.Seed, uint64(addr), c.gen, uint64(c.day), saltDayJitter) * 1800)
	}
	arrive := wg.arrive + wd.jitter
	return c.sod >= arrive && c.sod < wg.leave
}

func (c *ActiveCache) homeActive(addr int) bool {
	hg := &c.hgen[addr]
	if !c.homeSet.has(addr) || hg.gen != c.gen {
		hg.gen = c.gen
		hg.weekHash = HashUnit(c.b.Seed, uint64(addr), c.gen, saltHomeWeek)
		hg.eveStart = int64(18*3600) + int64(HashUnit(c.b.Seed, uint64(addr), c.gen, saltHomeEveningStart)*5400)
		c.homeSet.set(addr)
	}
	if hg.weekHash >= c.b.spec.HomeProb*c.dorm {
		return false
	}
	hd := &c.hday[addr]
	if !c.hdaySet.has(addr) || hd.day != c.day || hd.gen != c.gen {
		hd.day, hd.gen = c.day, c.gen
		hd.drop = HashUnit(c.b.Seed, uint64(addr), c.gen, uint64(c.day), saltHome) >= 0.93
		c.hdaySet.set(addr)
	}
	if hd.drop {
		return false
	}
	const eveEnd = int64(23*3600 + 1800)
	if c.sod >= hg.eveStart && c.sod < eveEnd {
		return true
	}
	if c.sod < 9*3600 || c.sod >= 17*3600 {
		return false
	}
	if c.weekend {
		return true
	}
	wfh, hol := c.masks(addr)
	return hol&c.holActive != 0 || wfh&c.wfhActive != 0
}
