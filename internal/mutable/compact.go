package mutable

import (
	"time"

	"mobispatial/internal/geom"
)

// Compaction folds a shard's overlay back into a freshly bulk-loaded packed
// base in three phases, blocking writers only for the two map swaps:
//
//  1. Freeze (write lock): detach the live overlay — delta tree, override
//     map, tombstones — as an immutable frozenView and install fresh empty
//     live structures. Readers now merge three layers; writers keep landing
//     in the new live overlay.
//  2. Rebuild (no locks): bulk-load a new packed base from the old base's
//     items minus frozen tombstones and superseded ids, plus the frozen
//     overlay's items. Both inputs are immutable, so queries and writes
//     proceed concurrently.
//  3. Swap (write lock): publish the new baseView through the atomic
//     pointer, drop the frozen layer, bump the epoch.
//
// A delete that arrives during phase 2 lands in the new live tombstone set,
// which masks the new base after the swap — so the rebuild never loses a
// concurrent write. The pend counter only returns to zero once no overlay
// entries remain, which is what re-arms the lock-free fast path.

// ForceCompact synchronously compacts every shard with a non-empty overlay.
// Tests and benchmarks use it to pin the "fully folded" state.
func (p *Pool) ForceCompact() {
	for _, s := range p.topo.Load().shards {
		s.compact()
	}
}

// CompactShard synchronously compacts shard i; it reports whether a
// compaction ran. An index outside the current topology is a no-op.
func (p *Pool) CompactShard(i int) bool {
	if t := p.topo.Load(); i >= 0 && i < len(t.shards) {
		return t.shards[i].compact()
	}
	return false
}

func (s *mshard) compact() bool {
	f := s.freeze()
	if f == nil {
		return false
	}
	return s.finishCompact(f)
}

// freeze runs phase 1, returning the detached overlay, or nil when there is
// nothing to compact or a freeze is already outstanding. Split from
// finishCompact so tests can hold the three-layer state open and query
// through it deterministically.
func (s *mshard) freeze() *frozenView {
	s.mu.Lock()
	if s.frozen != nil {
		// A concurrent ForceCompact already froze; let it finish.
		s.mu.Unlock()
		return nil
	}
	if len(s.overSeg) == 0 && len(s.tombs) == 0 {
		s.mu.Unlock()
		return nil
	}
	f := &frozenView{delta: s.delta, overSeg: s.overSeg, tombs: s.tombs}
	nd, err := newDelta(s.pl.cfg.DeltaNodeBytes)
	if err != nil {
		s.mu.Unlock()
		s.pl.m.compactErrs.Inc()
		return nil
	}
	s.frozen = f
	s.delta = nd
	s.overSeg = map[uint32]geom.Segment{}
	s.tombs = map[uint32]struct{}{}
	s.mu.Unlock()
	return f
}

// finishCompact runs phases 2 and 3 over a frozen overlay.
func (s *mshard) finishCompact(f *frozenView) bool {
	// Phase 2: rebuild from immutable inputs.
	items, over := mergedItems(s.base.Load(), f)
	nv, err := newBaseView(items, over, s.pl.cfg.NodeBytes)
	if err != nil {
		// Cannot happen with a config that built the initial base; if it
		// somehow does, leave the frozen layer in place — reads remain
		// correct, the shard just stays on the overlay path.
		s.pl.m.compactErrs.Inc()
		return false
	}

	// Phase 3: swap.
	s.mu.Lock()
	s.base.Store(nv)
	s.frozen = nil
	s.epoch.Add(1)
	s.pendChangedLocked()
	if s.pend.Load() > 0 {
		// Live writes arrived during the rebuild; their age restarts at
		// the swap (a bounded understatement of true staleness).
		s.pendSince.Store(time.Now().UnixNano())
	}
	s.mu.Unlock()
	s.pl.m.compactions.Inc()
	return true
}

func (p *Pool) compactLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stopc:
			p.updateGauges()
			return
		case <-t.C:
			now := time.Now().UnixNano()
			// Load the topology fresh each tick: a repartition may have
			// swapped it, and retired shards need no compaction — their
			// readers drain and the shards become garbage.
			for _, s := range p.topo.Load().shards {
				pend := int(s.pend.Load())
				if pend == 0 {
					continue
				}
				aged := false
				if p.cfg.CompactMaxAge > 0 {
					since := s.pendSince.Load()
					aged = since > 0 && now-since >= int64(p.cfg.CompactMaxAge)
				}
				if pend >= p.cfg.CompactThreshold || aged {
					s.compact()
				}
			}
			p.updateGauges()
		}
	}
}

// updateGauges publishes per-shard epoch, pending-overlay, staleness, and
// heat gauges; the serving tier's generic stats snapshot carries them to
// mqtop and mqload with no wire-format changes. Gauge rows beyond the
// current shard count (left over from before a merge) publish zero.
func (p *Pool) updateGauges() {
	t := p.topo.Load()
	t.heat.Fold()
	epochG, pendG, staleG, heatG := p.m.shardGauges(len(t.shards))
	if epochG == nil {
		return
	}
	now := time.Now().UnixNano()
	for i := range epochG {
		if i >= len(t.shards) {
			epochG[i].Set(0)
			pendG[i].Set(0)
			staleG[i].Set(0)
			heatG[i].Set(0)
			continue
		}
		s := t.shards[i]
		epochG[i].Set(float64(s.epoch.Load()))
		pendG[i].Set(float64(s.pend.Load()))
		stale := 0.0
		if since := s.pendSince.Load(); since > 0 && now > since {
			stale = float64(now-since) / float64(time.Second)
		}
		staleG[i].Set(stale)
		heatG[i].Set(t.heat.Rate(i))
	}
}
