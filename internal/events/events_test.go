package events

import (
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/netsim"
)

func TestYear2020CoversAtlasRegions(t *testing.T) {
	c := Year2020()
	if c.Label != "2020h1" {
		t.Errorf("label = %s", c.Label)
	}
	// Every atlas region should either have a WFH date or be a documented
	// exception; in 2020 every region here has some event.
	for _, r := range geo.DefaultWorld() {
		if len(c.EventsFor(r.Code)) == 0 {
			t.Errorf("region %s has no 2020 events", r.Code)
		}
	}
}

func TestYear2020KeyDates(t *testing.T) {
	c := Year2020()
	cases := []struct {
		code string
		want int64
	}{
		{"US-LA", netsim.Date(2020, time.March, 15)},
		{"SI", netsim.Date(2020, time.March, 16)},
		{"MA", netsim.Date(2020, time.March, 20)},
		{"AE", netsim.Date(2020, time.March, 24)},
		{"CN-WUH", netsim.Date(2020, time.January, 23)},
		{"IN-DEL", netsim.Date(2020, time.March, 22)},
		{"RU", netsim.Date(2020, time.March, 30)},
	}
	for _, cs := range cases {
		got, ok := c.WFHDate(cs.code)
		if !ok {
			t.Errorf("%s missing WFH date", cs.code)
			continue
		}
		if got != cs.want {
			t.Errorf("%s WFH = %s, want %s", cs.code,
				time.Unix(got, 0).UTC().Format("2006-01-02"),
				time.Unix(cs.want, 0).UTC().Format("2006-01-02"))
		}
	}
}

func TestYear2020EventShapes(t *testing.T) {
	c := Year2020()
	// US regions carry the two Figure 1 holidays.
	holidays := 0
	for _, e := range c.EventsFor("US-LA") {
		if e.Kind == netsim.EventHoliday {
			holidays++
			if e.End <= e.Start {
				t.Errorf("holiday with non-positive duration: %+v", e)
			}
		}
	}
	if holidays != 2 {
		t.Errorf("US-LA holidays = %d, want 2 (MLK + Presidents Day)", holidays)
	}
	// Delhi has the riots curfew and the Janata curfew.
	curfews := 0
	for _, e := range c.EventsFor("IN-DEL") {
		if e.Kind == netsim.EventCurfew {
			curfews++
		}
	}
	if curfews != 2 {
		t.Errorf("IN-DEL curfews = %d, want 2", curfews)
	}
	// All adoptions are valid probabilities.
	for code, evs := range c.Events {
		for _, e := range evs {
			if e.Adoption < 0 || e.Adoption > 1 {
				t.Errorf("%s event %v has adoption %g", code, e.Kind, e.Adoption)
			}
		}
	}
}

func TestYear2023Control(t *testing.T) {
	c := Year2023()
	if len(c.EventsFor("IN-DEL")) != 0 {
		t.Error("2023 New Delhi should be quiet (Appendix B.4)")
	}
	evs := c.EventsFor("CN-BEI")
	if len(evs) != 1 || evs[0].Kind != netsim.EventHoliday {
		t.Fatalf("2023 Beijing should have exactly the Spring Festival: %+v", evs)
	}
	if evs[0].Start != netsim.Date(2023, time.January, 22) {
		t.Errorf("2023 festival start wrong")
	}
	for _, e := range c.Events {
		for _, ev := range e {
			if ev.Kind == netsim.EventWFH {
				t.Error("2023 control must not contain WFH events")
			}
		}
	}
}

func TestMatchWithin(t *testing.T) {
	truth := netsim.Date(2020, time.March, 15)
	day := int64(netsim.SecondsPerDay)
	cases := []struct {
		offset int64
		want   bool
	}{
		{0, true},
		{4 * day, true},
		{-4 * day, true},
		{4*day + 1, false},
		{-5 * day, false},
	}
	for _, cs := range cases {
		if got := MatchWithin(truth+cs.offset, truth, MatchWindowDays); got != cs.want {
			t.Errorf("offset %d: match = %v, want %v", cs.offset, got, cs.want)
		}
	}
}

func TestWFHDateMissing(t *testing.T) {
	c := Year2023()
	if _, ok := c.WFHDate("US-LA"); ok {
		t.Error("US-LA should have no 2023 WFH date")
	}
}
