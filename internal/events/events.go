// Package events holds the ground-truth calendar of real-world events the
// paper validates against — Covid work-from-home onsets per country
// (collected from the news sources cited in §3.6), public holidays (MLK
// day, Presidents Day, Spring Festival), curfews (Janata curfew, Delhi
// riots, UAE), and the 2023 control period — plus the ±4-day matching rule
// used to score detections.
package events

import (
	"time"

	"github.com/diurnalnet/diurnal/internal/netsim"
)

// Calendar maps atlas region codes to the scheduled events their blocks
// experience, and records the publicly reported onset date used as scoring
// truth.
type Calendar struct {
	// Events lists the netsim events to attach to every block of the
	// region (adoption handles partial uptake).
	Events map[string][]netsim.Event
	// WFHDates is the news-reported work-from-home (or lockdown) onset
	// per region; regions absent here had no WFH event in the window,
	// like Russia and Singapore in 2020q1 (§3.6).
	WFHDates map[string]int64
	// Label describes the calendar ("2020h1", "2023q1").
	Label string
}

func d(y int, m time.Month, day int) int64 { return netsim.Date(y, m, day) }

// Year2020 returns the 2020h1 calendar: the Covid WFH wave, the holidays
// visible in the paper's Figure 1, the Wuhan lockdown, the Delhi riots,
// and the Janata curfew.
func Year2020() *Calendar {
	c := &Calendar{
		Events:   map[string][]netsim.Event{},
		WFHDates: map[string]int64{},
		Label:    "2020h1",
	}
	add := func(code string, evs ...netsim.Event) {
		c.Events[code] = append(c.Events[code], evs...)
	}
	wfh := func(code string, start int64, adoption float64) {
		add(code, netsim.Event{Kind: netsim.EventWFH, Start: start, Adoption: adoption})
		c.WFHDates[code] = start
	}

	springFestival := netsim.Event{
		Kind: netsim.EventHoliday, Start: d(2020, time.January, 24),
		End: d(2020, time.February, 3), Adoption: 0.85,
	}
	// China: Spring Festival plus post-festival partial WFH that unwinds
	// in April (the paper cannot separate the concurrent festival and
	// Wuhan lockdown, §4.2).
	for _, code := range []string{"CN", "CN-BEI", "CN-SHA"} {
		add(code, springFestival)
		// Partial post-festival WFH; the unwind was gradual and so is not
		// modeled as a synchronized end date.
		add(code, netsim.Event{
			Kind: netsim.EventWFH, Start: d(2020, time.February, 3), Adoption: 0.3,
		})
		c.WFHDates[code] = d(2020, time.January, 24)
	}
	// Wuhan: festival, then the full lockdown from Jan 23 to Apr 8.
	add("CN-WUH", springFestival)
	add("CN-WUH", netsim.Event{
		Kind: netsim.EventCurfew, Start: d(2020, time.January, 23),
		End: d(2020, time.April, 8), Adoption: 0.65,
	})
	c.WFHDates["CN-WUH"] = d(2020, time.January, 23)

	// India: Janata curfew (Mar 22) then national lockdown (Mar 24).
	for _, code := range []string{"IN", "IN-DEL"} {
		add(code, netsim.Event{
			Kind: netsim.EventCurfew, Start: d(2020, time.March, 22),
			End: d(2020, time.March, 23), Adoption: 0.8,
		})
		wfh(code, d(2020, time.March, 24), 0.6)
		c.WFHDates[code] = d(2020, time.March, 22)
	}
	// Delhi riots: protests and de-facto curfews Feb 23–29 (§4.3), a
	// non-Covid human-activity change.
	add("IN-DEL", netsim.Event{
		Kind: netsim.EventCurfew, Start: d(2020, time.February, 23),
		End: d(2020, time.March, 1), Adoption: 0.35,
	})

	// United States: the Figure 1 holidays and the mid-March WFH wave.
	mlk := netsim.Event{Kind: netsim.EventHoliday, Start: d(2020, time.January, 20),
		End: d(2020, time.January, 21), Adoption: 0.6}
	presidents := netsim.Event{Kind: netsim.EventHoliday, Start: d(2020, time.February, 17),
		End: d(2020, time.February, 18), Adoption: 0.5}
	for _, code := range []string{"US-W", "US-E", "US-LA", "US-IN"} {
		add(code, mlk, presidents)
	}
	wfh("US-LA", d(2020, time.March, 15), 0.85) // USC's confirmed date (Figure 1)
	wfh("US-W", d(2020, time.March, 17), 0.7)
	wfh("US-E", d(2020, time.March, 17), 0.7)
	// Indiana: spring break Mar 13, remote learning Mar 19 (Appendix E).
	add("US-IN", netsim.Event{Kind: netsim.EventHoliday, Start: d(2020, time.March, 13),
		End: d(2020, time.March, 19), Adoption: 0.7})
	wfh("US-IN", d(2020, time.March, 19), 0.85)
	c.WFHDates["US-IN"] = d(2020, time.March, 15) // detections center on break+remote

	// Europe.
	wfh("EU-W", d(2020, time.March, 16), 0.7)  // Italy 3-09, Spain 3-14, France 3-17
	wfh("SI", d(2020, time.March, 16), 0.75)   // Slovenia school closures (§3.7)
	wfh("EU-E", d(2020, time.March, 20), 0.55) // Germany 3-20/22 and eastward
	wfh("RU", d(2020, time.March, 30), 0.6)    // Moscow lockdown, outside q1 scoring

	// Middle East and Africa.
	wfh("AE", d(2020, time.March, 24), 0.75) // UAE campaign 3-22, curfew 3-26
	add("AE", netsim.Event{Kind: netsim.EventCurfew, Start: d(2020, time.March, 26),
		End: d(2020, time.March, 30), Adoption: 0.8})
	wfh("MA", d(2020, time.March, 20), 0.8) // Morocco state of emergency
	wfh("AF-N", d(2020, time.March, 22), 0.45)
	wfh("AF-S", d(2020, time.March, 26), 0.4)

	// Rest of Asia-Pacific and the Americas.
	wfh("SEA", d(2020, time.March, 17), 0.65) // Philippines 3-15, Malaysia 3-18
	wfh("JPKR", d(2020, time.April, 7), 0.4)  // Japan state of emergency
	wfh("BR", d(2020, time.March, 24), 0.5)
	wfh("SA-W", d(2020, time.March, 16), 0.5) // Venezuela 3-16 and neighbours
	wfh("OC", d(2020, time.March, 23), 0.15)  // Oceania: low changes (§4.1)

	return c
}

// Year2023 returns the control calendar of Appendix B.3/B.4: the 2023
// Spring Festival in China and nothing in India.
func Year2023() *Calendar {
	c := &Calendar{
		Events:   map[string][]netsim.Event{},
		WFHDates: map[string]int64{},
		Label:    "2023q1",
	}
	festival := netsim.Event{
		Kind: netsim.EventHoliday, Start: d(2023, time.January, 22),
		End: d(2023, time.January, 30), Adoption: 0.85,
	}
	for _, code := range []string{"CN", "CN-BEI", "CN-SHA", "CN-WUH"} {
		c.Events[code] = append(c.Events[code], festival)
		c.WFHDates[code] = festival.Start
	}
	return c
}

// EventsFor returns the events scheduled for a region code (nil when the
// region has none).
func (c *Calendar) EventsFor(code string) []netsim.Event {
	return c.Events[code]
}

// WFHDate returns the news-reported onset for the region and whether one
// exists in this calendar.
func (c *Calendar) WFHDate(code string) (int64, bool) {
	t, ok := c.WFHDates[code]
	return t, ok
}

// MatchWindowDays is the paper's block-level correctness window: "a WFH
// detection within four days of a public WFH report" (§3.6).
const MatchWindowDays = 4

// MatchWithin reports whether a detection at time detected falls within
// ±days days of the truth timestamp.
func MatchWithin(detected, truth int64, days int) bool {
	diff := detected - truth
	if diff < 0 {
		diff = -diff
	}
	return diff <= int64(days)*netsim.SecondsPerDay
}
