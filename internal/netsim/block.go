package netsim

import (
	"fmt"
)

// AddressKind classifies the process behind one IPv4 address.
type AddressKind uint8

const (
	// Unused addresses never respond and never have.
	Unused AddressKind = iota
	// Firewalled addresses are allocated but a firewall drops probes, so
	// they never respond (paper §1: "firewalls hide many networks").
	Firewalled
	// AlwaysOn addresses respond around the clock: servers, routers, and
	// NAT front doors whose "24x7 operation means they are not diurnal"
	// (§3.5).
	AlwaysOn
	// Worker addresses are desktops on public IPs, present during local
	// work hours on workdays — the paper's main human-activity signal.
	Worker
	// HomeEvening addresses are home devices on public IPs, present in
	// the evening and on weekends.
	HomeEvening
	// Intermittent addresses follow an uncorrelated duty cycle (DHCP
	// churn, lab machines); they add non-diurnal noise.
	Intermittent
)

// String names the kind.
func (k AddressKind) String() string {
	switch k {
	case Unused:
		return "unused"
	case Firewalled:
		return "firewalled"
	case AlwaysOn:
		return "always-on"
	case Worker:
		return "worker"
	case HomeEvening:
		return "home-evening"
	case Intermittent:
		return "intermittent"
	default:
		return fmt.Sprintf("AddressKind(%d)", uint8(k))
	}
}

// hash salts, one per independent decision.
const (
	saltKind uint64 = iota + 1
	saltPresent
	saltWeekend
	saltArrive
	saltLeave
	saltDayJitter
	saltWFH
	saltHoliday
	saltHome
	saltDuty
	saltHomeEveningStart
	saltDormant
	saltDormantPhase
	saltHomeWeek
)

// BlockID identifies a /24 block by its 24-bit prefix value.
type BlockID uint32

// String renders the block in CIDR form, e.g. "128.9.144.0/24".
func (b BlockID) String() string {
	return fmt.Sprintf("%d.%d.%d.0/24", byte(b>>16), byte(b>>8), byte(b))
}

// Spec describes the population of one /24 block. Counts must sum to at
// most 256; remaining addresses are Unused.
type Spec struct {
	Workers      int
	Homes        int
	AlwaysOn     int
	Intermittent int
	Firewalled   int

	// TZOffset is the block's local-time offset east of UTC in seconds.
	TZOffset int64
	// WeekendWorkProb is the chance a worker comes in on a weekend day
	// (default 0.03).
	WeekendWorkProb float64
	// HomeProb is the chance a home device is on during a given evening
	// (default 0.8).
	HomeProb float64
	// DormantProb is the chance that, in any given dormancy epoch (of
	// dormantEpochDays), the block's human population goes mostly quiet —
	// offices empty for a remodel, a lab between projects, an ISP pool
	// drained. This is the behavioural churn (non-stationarity) the paper
	// observes in §3.4: longer observation windows intersect more epochs
	// and so find fewer consistently diurnal blocks. Zero disables it.
	DormantProb float64
	// dormantEpochDays is the dormancy epoch length (default 56 when
	// DormantProb > 0; in-package tests shorten it). Epoch boundaries are
	// phase-shifted per block so dormancy never synchronizes across the
	// world.
	dormantEpochDays int
}

// Every block shares one work schedule and one duty cycle.
const (
	// workStart and workEnd are the local seconds-of-day bounding the
	// work window, 08:00–17:00.
	workStart, workEnd = 8 * 3600, 17 * 3600
	// presenceProb is the chance a worker shows up on a given workday.
	presenceProb = 0.9
	// duty is the intermittent-address duty cycle.
	duty = 0.5
)

func (s *Spec) withDefaults() Spec {
	out := *s
	if out.WeekendWorkProb == 0 {
		out.WeekendWorkProb = 0.03
	}
	if out.HomeProb == 0 {
		out.HomeProb = 0.8
	}
	if out.DormantProb > 0 && out.dormantEpochDays == 0 {
		out.dormantEpochDays = 56
	}
	return out
}

// Block is a simulated /24 with 256 deterministic address processes.
type Block struct {
	ID   BlockID
	Seed uint64

	spec   Spec
	kinds  [256]AddressKind
	events []Event
}

// NewBlock builds a block from a spec. Address kinds are assigned to
// pseudorandom positions derived from the seed, so blocks with identical
// specs still differ in layout.
func NewBlock(id BlockID, seed uint64, spec Spec) (*Block, error) {
	total := spec.Workers + spec.Homes + spec.AlwaysOn + spec.Intermittent + spec.Firewalled
	if spec.Workers < 0 || spec.Homes < 0 || spec.AlwaysOn < 0 || spec.Intermittent < 0 || spec.Firewalled < 0 {
		return nil, fmt.Errorf("netsim: negative population count in spec %+v", spec)
	}
	if total > 256 {
		return nil, fmt.Errorf("netsim: spec populates %d addresses > 256", total)
	}
	if spec.HomeProb < 0 || spec.HomeProb > 1 || spec.WeekendWorkProb < 0 || spec.WeekendWorkProb > 1 ||
		spec.DormantProb < 0 || spec.DormantProb > 1 {
		return nil, fmt.Errorf("netsim: probability out of [0,1] in spec %+v", spec)
	}
	b := &Block{ID: id, Seed: seed, spec: spec.withDefaults()}
	rng := NewRNG(Hash64(seed, saltKind))
	perm := rng.Perm(256)
	i := 0
	assign := func(kind AddressKind, n int) {
		for j := 0; j < n; j++ {
			b.kinds[perm[i]] = kind
			i++
		}
	}
	assign(Worker, spec.Workers)
	assign(HomeEvening, spec.Homes)
	assign(AlwaysOn, spec.AlwaysOn)
	assign(Intermittent, spec.Intermittent)
	assign(Firewalled, spec.Firewalled)
	return b, nil
}

// AddEvent appends a scheduled event. Events may be added in any order.
func (b *Block) AddEvent(e Event) {
	b.events = append(b.events, e)
}

// Events returns the block's event schedule.
func (b *Block) Events() []Event { return b.events }

// EverActive returns the indices of addresses that have ever responded —
// the paper's E(b) target list (§2.2): everything allocated and not
// firewalled.
func (b *Block) EverActive() []int {
	var out []int
	for a, k := range b.kinds {
		if k != Unused && k != Firewalled {
			out = append(out, a)
		}
	}
	return out
}

// Active reports whether address addr responds to a probe at time t. It is
// a pure function of (seed, addr, t).
func (b *Block) Active(addr int, t int64) bool {
	kind := b.kinds[addr]
	if kind == Unused || kind == Firewalled {
		return false
	}
	if b.inOutage(t) {
		return false
	}
	gen, renumberGap := b.renumberState(t)
	if renumberGap && kind != AlwaysOn {
		return false
	}
	switch kind {
	case AlwaysOn:
		return true
	case Worker:
		return b.workerActive(addr, t, gen)
	case HomeEvening:
		return b.homeActive(addr, t, gen)
	case Intermittent:
		slot := floorDiv(t+b.spec.TZOffset, 3*3600)
		return HashUnit(b.Seed, uint64(addr), gen, uint64(slot), saltDuty) < duty
	default:
		return false
	}
}

// workerActive implements the workday schedule: present on workdays with
// presenceProb during [workStart+jitter, workEnd+jitter) local time,
// absent on weekends/holidays/curfews (rare weekend work aside), and
// absent entirely once the address's owner adopts work-from-home.
func (b *Block) workerActive(addr int, t int64, gen uint64) bool {
	if b.wfhAdopter(addr, t) {
		return false
	}
	local := t + b.spec.TZOffset
	day := DayIndex(local)
	sod := SecondOfDay(local)
	dorm := b.dormancyFactor(t)
	offDay := IsWeekend(local) || b.holidayFor(addr, t)
	if offDay {
		if HashUnit(b.Seed, uint64(addr), gen, uint64(day), saltWeekend) >= b.spec.WeekendWorkProb*dorm {
			return false
		}
	} else if HashUnit(b.Seed, uint64(addr), gen, uint64(day), saltPresent) >= presenceProb*dorm {
		return false
	}
	// Stable per-address habits plus small per-day jitter.
	arrive := workStart +
		int64(HashUnit(b.Seed, uint64(addr), gen, saltArrive)*5400) + // 0..90 min habit
		int64(HashUnit(b.Seed, uint64(addr), gen, uint64(day), saltDayJitter)*1800) // 0..30 min today
	leave := workEnd +
		int64(HashUnit(b.Seed, uint64(addr), gen, saltLeave)*7200) // 0..2 h habit
	return sod >= arrive && sod < leave
}

// homeActive implements the evening/weekend schedule, with work-from-home
// adopters additionally active during the workday.
func (b *Block) homeActive(addr int, t int64, gen uint64) bool {
	local := t + b.spec.TZOffset
	day := DayIndex(local)
	sod := SecondOfDay(local)
	// Home devices (routers, media boxes, desktops) stay plugged in for
	// months: whether an address hosts a regularly-used device is fixed
	// per renumbering generation, with only occasional daily dropouts, so
	// the block's day-to-day count is far less noisy than an independent
	// daily coin would make it.
	if HashUnit(b.Seed, uint64(addr), gen, saltHomeWeek) >= b.spec.HomeProb*b.dormancyFactor(t) {
		return false
	}
	if HashUnit(b.Seed, uint64(addr), gen, uint64(day), saltHome) >= 0.93 {
		return false
	}
	eveStart := int64(18*3600) + int64(HashUnit(b.Seed, uint64(addr), gen, saltHomeEveningStart)*5400)
	eveEnd := int64(23*3600 + 1800)
	if sod >= eveStart && sod < eveEnd {
		return true
	}
	daytime := sod >= 9*3600 && sod < 17*3600
	if !daytime {
		return false
	}
	// Weekends, holidays/curfews, and adopted WFH put home devices online
	// during the day.
	if IsWeekend(local) || b.holidayFor(addr, t) || b.wfhAdopter(addr, t) {
		return true
	}
	return false
}

// dormancyFactor returns the presence multiplier for the block's human
// population at time t: 1 during normal epochs, a small residual during
// dormant epochs (a skeleton crew, not total silence).
func (b *Block) dormancyFactor(t int64) float64 {
	if b.spec.DormantProb <= 0 {
		return 1
	}
	epochLen := int64(b.spec.dormantEpochDays) * SecondsPerDay
	phase := int64(HashUnit(b.Seed, saltDormantPhase) * float64(epochLen))
	epoch := floorDiv(t+phase, epochLen)
	if HashUnit(b.Seed, uint64(epoch), saltDormant) < b.spec.DormantProb {
		return 0.15
	}
	return 1
}
