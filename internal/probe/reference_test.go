package probe

import (
	"context"
	"fmt"

	"github.com/diurnalnet/diurnal/internal/netsim"
)

// RunReference and CollectReference expose the oracle to the external
// test package (collect_test.go), which needs internal/dataset's catalog
// engines and so cannot live in package probe.
var (
	RunReference     = runReference
	CollectReference = collectReference
)

// collectReference is the previous CollectInto over the previous probing
// loop: the oracle CollectInto is held to.
func collectReference(e *Engine, b *netsim.Block, start, end int64) ([][]Record, error) {
	bufs := make([][]Record, len(e.Observers))
	err := runReferenceLoop(e, context.Background(), b, start, end, nil, bufs)
	return bufs, err
}

// runReference is the previous Run: records streamed to fn in global time
// order as they are probed.
func runReference(e *Engine, b *netsim.Block, start, end int64, fn func(obs int, r Record)) error {
	return runReferenceLoop(e, context.Background(), b, start, end, fn, nil)
}

// runReferenceLoop is the previous Engine.run, verbatim apart from its name
// and receiver: every round re-picks the observer with the earliest next
// round by a linear scan, and every probe re-evaluates LossModel.Rate.
func runReferenceLoop(e *Engine, ctx context.Context, b *netsim.Block, start, end int64, fn func(obs int, r Record), bufs [][]Record) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if end <= start {
		return fmt.Errorf("probe: empty window [%d,%d)", start, end)
	}
	order := e.Order(b)
	if len(order) == 0 {
		return nil // nothing ever responded: Trinocular drops such blocks
	}
	ac := b.NewActiveCache()
	type state struct {
		next   int64
		cursor int
	}
	sts := make([]state, len(e.Observers))
	for i, o := range e.Observers {
		sts[i] = state{
			next:   start + o.Phase,
			cursor: i * len(order) / len(e.Observers),
		}
	}
	rounds := 0
	for {
		if rounds++; rounds&0x3f == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		oi := -1
		for i := range sts {
			if sts[i].next >= end {
				continue
			}
			if oi == -1 || sts[i].next < sts[oi].next {
				oi = i
			}
		}
		if oi == -1 {
			return nil
		}
		st := &sts[oi]
		if o := &e.Observers[oi]; o.Down == nil || !o.Down(st.next) {
			if bufs != nil {
				bufs[oi] = roundIntoReference(e, ac, oi, st.next, order, &st.cursor, bufs[oi])
			} else {
				roundReference(e, ac, oi, st.next, order, &st.cursor, fn)
			}
		}
		st.next += netsim.RoundSeconds
	}
}

// roundReference is the previous Engine.round, verbatim but for the
// budget, which is no longer per observer.
func roundReference(e *Engine, ac *netsim.ActiveCache, oi int, t int64, order []int, cursor *int, fn func(obs int, r Record)) {
	b := ac.Block()
	o := &e.Observers[oi]
	budget := maxPerRound + o.Extra
	if budget > len(order) {
		budget = len(order)
	}
	sincePositive := -1
	for k := 0; k < budget; k++ {
		addr := order[*cursor]
		if *cursor++; *cursor == len(order) {
			*cursor = 0
		}
		up := ac.Active(addr, t)
		if up && o.Loss != nil {
			rate := o.Loss.Rate(b.ID, t)
			if rate > 0 && netsim.HashUnit(o.Seed, uint64(b.ID), uint64(t), uint64(addr), saltLoss) < rate {
				up = false
			}
		}
		if up && o.ExtraLoss != nil && o.ExtraLoss(b.ID, t, addr) {
			up = false
		}
		fn(oi, Record{T: t, Addr: uint8(addr), Up: up})
		if up && sincePositive < 0 {
			sincePositive = 0
		} else if sincePositive >= 0 {
			sincePositive++
		}
		if sincePositive >= 0 && sincePositive >= o.Extra {
			return
		}
	}
}

// roundIntoReference is the previous Engine.roundInto, verbatim but for
// the budget, which is no longer per observer.
func roundIntoReference(e *Engine, ac *netsim.ActiveCache, oi int, t int64, order []int, cursor *int, buf []Record) []Record {
	b := ac.Block()
	o := &e.Observers[oi]
	budget := maxPerRound + o.Extra
	if budget > len(order) {
		budget = len(order)
	}
	cur := *cursor
	lossy := o.Loss != nil || o.ExtraLoss != nil
	sincePositive := -1
	for k := 0; k < budget; k++ {
		addr := order[cur]
		if cur++; cur == len(order) {
			cur = 0
		}
		up := ac.Active(addr, t)
		if up && lossy {
			if o.Loss != nil {
				rate := o.Loss.Rate(b.ID, t)
				if rate > 0 && netsim.HashUnit(o.Seed, uint64(b.ID), uint64(t), uint64(addr), saltLoss) < rate {
					up = false
				}
			}
			if up && o.ExtraLoss != nil && o.ExtraLoss(b.ID, t, addr) {
				up = false
			}
		}
		buf = append(buf, Record{T: t, Addr: uint8(addr), Up: up})
		if up && sincePositive < 0 {
			sincePositive = 0
		} else if sincePositive >= 0 {
			sincePositive++
		}
		if sincePositive >= 0 && sincePositive >= o.Extra {
			break
		}
	}
	*cursor = cur
	return buf
}
