package mutable

import (
	"sort"
	"time"

	"mobispatial/internal/dynrtree"
	"mobispatial/internal/geom"
	"mobispatial/internal/heat"
	"mobispatial/internal/ops"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// Workload-adaptive repartitioning. A background loop watches the per-shard
// EWMA heat the read path samples and reshapes the cut table online: a shard
// drawing a disproportionate share of queries splits at the median Hilbert
// key of its contents, and a run of cold neighbors merges back into one.
// Both operations reuse the compactor's freeze/rebuild/swap discipline —
// replacement shards are built off to the side from immutable inputs, then a
// new topology generation is published through the pool's atomic pointer —
// so readers never block on a repartition and the zero-alloc warm read path
// survives unchanged.
//
// Retirement semantics: the replaced shard keeps its layers intact (the swap
// COPIES the live overlay into the replacements, it never moves it), so a
// reader still holding the previous topology snapshot keeps observing every
// acknowledged write; the retired shard becomes garbage when those readers
// drain. The swap happens under the pool's omu, the same lock every write
// resolves ownership under, so no write can land in a retired shard.

// AdaptiveConfig tunes the repartitioner. The zero value disables it; an
// enabled config requires the pool to own every cluster range under the
// identity mapping (a replica holding a subset cannot re-cut the cluster
// unilaterally).
type AdaptiveConfig struct {
	// Enabled turns the heat-driven split/merge loop on.
	Enabled bool

	// Interval is the decision period: each tick applies at most one split
	// or merge. 0 means 500ms; negative disables the background loop
	// (tests drive RepartitionOnce directly).
	Interval time.Duration

	// SplitFactor is the heat multiple over the per-shard mean at which a
	// shard becomes split-eligible. Defaults to 1.5.
	SplitFactor float64

	// MergeFactor is the heat multiple of the mean below which an adjacent
	// pair's combined heat makes it merge-eligible. Defaults to 0.3 —
	// the gap to SplitFactor is the hysteresis that stops oscillation.
	MergeFactor float64

	// MinShardItems stops splitting shards that are already small: a shard
	// splits only when it holds at least 2*MinShardItems objects.
	// Defaults to 512.
	MinShardItems int

	// MaxShards caps the shard count. Defaults to 64 — the result cache's
	// per-shard version-vector width.
	MaxShards int

	// MinShards floors the shard count for merges. Defaults to 1.
	MinShards int

	// HalfLifeSeconds is the heat EWMA half-life;
	// 0 means heat.DefaultHalfLife.
	HalfLifeSeconds float64
}

func (c *AdaptiveConfig) fill() {
	if c.Interval == 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.SplitFactor <= 0 {
		c.SplitFactor = 1.5
	}
	if c.MergeFactor <= 0 {
		c.MergeFactor = 0.3
	}
	if c.MinShardItems <= 0 {
		c.MinShardItems = 512
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 64
	}
	if c.MinShards <= 0 {
		c.MinShards = 1
	}
	if c.HalfLifeSeconds <= 0 {
		c.HalfLifeSeconds = heat.DefaultHalfLife
	}
}

func (p *Pool) repartitionLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.Adaptive.Interval)
	defer t.Stop()
	for {
		select {
		case <-p.stopc:
			return
		case <-t.C:
			p.RepartitionOnce()
		}
	}
}

// RepartitionOnce runs one decision tick: fold the heat, then apply at most
// one split (of the hottest eligible shard) or merge (of the coldest
// adjacent pair). It reports whether the topology changed. The background
// loop calls it every Adaptive.Interval; tests call it directly for
// deterministic repartitions.
func (p *Pool) RepartitionOnce() bool {
	t := p.topo.Load()
	if !t.ownsAll || len(t.shards) == 0 {
		return false
	}
	t.heat.Fold()
	cfg := &p.cfg.Adaptive
	n := len(t.shards)
	total := t.heat.Total()
	if total <= 0 {
		return false
	}
	mean := total / float64(n)

	// Split the hottest eligible shard. A lone shard splits on any
	// traffic at all — with n == 1 the mean test is vacuous.
	if n < cfg.MaxShards {
		best, bestRate := -1, 0.0
		for i, s := range t.shards {
			r := t.heat.Rate(i)
			if r > bestRate && (n == 1 || r >= cfg.SplitFactor*mean) &&
				int(s.count.Load()) >= 2*cfg.MinShardItems {
				best, bestRate = i, r
			}
		}
		if best >= 0 && p.splitShard(t, best) {
			return true
		}
	}

	// Merge the coldest adjacent pair.
	if n > cfg.MinShards && n >= 2 {
		best, bestSum := -1, 0.0
		for g := 0; g+1 < n; g++ {
			sum := t.heat.Rate(g) + t.heat.Rate(g+1)
			if best < 0 || sum < bestSum {
				best, bestSum = g, sum
			}
		}
		if best >= 0 && bestSum <= cfg.MergeFactor*mean {
			return p.mergeShards(t, best)
		}
	}
	return false
}

// detachWith is the freeze detachment with s.mu already held in write mode:
// the live overlay becomes the immutable frozen layer and nd becomes the new
// empty live delta. The caller must have checked s.frozen == nil.
func (s *mshard) detachWith(nd *dynrtree.Tree) *frozenView {
	f := &frozenView{delta: s.delta, overSeg: s.overSeg, tombs: s.tombs}
	s.frozen = f
	s.delta = nd
	s.overSeg = map[uint32]geom.Segment{}
	s.tombs = map[uint32]struct{}{}
	return f
}

// freezeForRepartition is freeze() for the repartitioner: it detaches the
// overlay even when empty, because the installed frozen layer is also the
// mutual-exclusion token against the compactor (freeze() refuses while a
// frozen layer exists, so no compaction can fold this shard mid-repartition).
// Returns nil when a freeze is already outstanding — the repartition aborts
// and retries next tick.
func (s *mshard) freezeForRepartition() *frozenView {
	nd, err := newDelta(s.pl.cfg.DeltaNodeBytes)
	if err != nil {
		s.pl.m.compactErrs.Inc()
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen != nil {
		return nil
	}
	return s.detachWith(nd)
}

// freezePairForRepartition freezes both merge victims atomically, under both
// write locks (taken in li order, the same discipline writers use). Two
// separate freezes would leave a window where a cross-shard move lands its
// removal in the first shard's LIVE tombstones but its arrival in the second
// shard's FROZEN overlay: the swap would then see a live tombstone for an id
// whose current copy sits in the merged base and wrongly kill it. With both
// detachments under both locks, any move between the victims is either
// entirely in the frozen snapshots or entirely in the live layers.
func freezePairForRepartition(p *Pool, a, b *mshard) (fa, fb *frozenView) {
	nda, err := newDelta(p.cfg.DeltaNodeBytes)
	if err != nil {
		p.m.compactErrs.Inc()
		return nil, nil
	}
	ndb, err := newDelta(p.cfg.DeltaNodeBytes)
	if err != nil {
		p.m.compactErrs.Inc()
		return nil, nil
	}
	lk, hk := a, b
	if lk.li > hk.li {
		lk, hk = hk, lk
	}
	lk.mu.Lock()
	hk.mu.Lock()
	if a.frozen == nil && b.frozen == nil {
		fa = a.detachWith(nda)
		fb = b.detachWith(ndb)
	}
	hk.mu.Unlock()
	lk.mu.Unlock()
	return fa, fb
}

// mergedItems folds a frozen overlay into its base's item set: the input of
// the tree build in compaction phase 2 and in a repartition. Both inputs are
// immutable; the result is the shard's visible-beneath-the-live-overlay
// contents, with over carrying the geometry of every id whose segment
// differs from the base dataset.
func mergedItems(old *baseView, f *frozenView) ([]rtree.Item, map[uint32]geom.Segment) {
	items := make([]rtree.Item, 0, len(old.items)+len(f.overSeg))
	over := make(map[uint32]geom.Segment, len(old.over)+len(f.overSeg))
	for _, it := range old.items {
		if _, dead := f.tombs[it.ID]; dead {
			continue
		}
		if _, moved := f.overSeg[it.ID]; moved {
			continue
		}
		items = append(items, it)
		if seg, ok := old.over[it.ID]; ok {
			over[it.ID] = seg
		}
	}
	for id, seg := range f.overSeg {
		items = append(items, rtree.Item{MBR: seg.MBR(), ID: id})
		over[id] = seg
	}
	return items, over
}

// newRepartShard builds a replacement shard from a merged item set, seeding
// its base overlay map with the non-dataset geometries among them. The shard
// is private until the topology swap publishes it, so the direct map writes
// need no lock.
func newRepartShard(p *Pool, items []rtree.Item, over map[uint32]geom.Segment) (*mshard, error) {
	s, err := newMShard(p, int(p.liSeq.Add(1)-1), items)
	if err != nil {
		return nil, err
	}
	bv := s.base.Load()
	for id := range bv.has {
		if seg, ok := over[id]; ok {
			bv.over[id] = seg
		}
	}
	return s, nil
}

// adopt finalizes a replacement shard at swap time (omu held): every live id
// it now holds is claimed in the owner table, and its count, pend, and
// staleness clock are set from its final contents.
func (p *Pool) adopt(c *mshard, pendSince int64) {
	bv := c.base.Load()
	var n int64
	for id := range bv.has {
		if _, dead := c.tombs[id]; dead {
			continue
		}
		p.ownerOf[id] = c
		n++
	}
	for id := range c.overSeg {
		if _, inBase := bv.has[id]; !inBase {
			n++
		}
		p.ownerOf[id] = c
	}
	c.count.Store(n)
	pend := len(c.overSeg) + len(c.tombs)
	c.pend.Store(int64(pend))
	if pend > 0 {
		if pendSince == 0 {
			pendSince = time.Now().UnixNano()
		}
		c.pendSince.Store(pendSince)
	}
	c.version.Add(1)
}

// splitShard splits global range g of topology t at the median Hilbert key
// of its contents, publishing a t.gen+1 topology with one more shard. It
// reports false when the split cannot proceed (compaction in flight, no
// separating key, or t is no longer current) — every abort path restores the
// shard via finishCompact, which folds the frozen layer back into a fresh
// base.
func (p *Pool) splitShard(t *topology, g int) bool {
	if !t.ownsAll || g < 0 || g >= len(t.shards) {
		return false
	}
	s := t.shards[g]
	f := s.freezeForRepartition()
	if f == nil {
		return false
	}

	// Rebuild off to the side: no locks held, queries and writes proceed.
	items, over := mergedItems(s.base.Load(), f)
	type keyed struct {
		key uint64
		it  rtree.Item
	}
	ks := make([]keyed, len(items))
	for i, it := range items {
		ks[i] = keyed{shard.WriteKey(p.q, it.MBR), it}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })

	// The cut becomes the right child's Lo: it must strictly separate the
	// sorted keys (both children non-empty) and sit strictly inside the
	// range's key span so the cut table stays ascending. Scan outward from
	// the median for the most balanced valid cut.
	lo, hi := t.cuts[g], t.rangeHi(g)
	nk := len(ks)
	cutIdx := -1
	for d := 0; d < nk && cutIdx < 0; d++ {
		for _, idx := range [2]int{nk/2 - d, nk/2 + d} {
			if idx >= 1 && idx < nk &&
				ks[idx].key > ks[idx-1].key && ks[idx].key > lo && ks[idx].key <= hi {
				cutIdx = idx
				break
			}
		}
	}
	if cutIdx < 0 {
		// Degenerate contents (all keys equal): nothing to split on.
		s.finishCompact(f)
		return false
	}
	cut := ks[cutIdx].key

	leftItems := make([]rtree.Item, 0, cutIdx)
	rightItems := make([]rtree.Item, 0, nk-cutIdx)
	for i, k := range ks {
		if i < cutIdx {
			leftItems = append(leftItems, k.it)
		} else {
			rightItems = append(rightItems, k.it)
		}
	}
	left, errL := newRepartShard(p, leftItems, over)
	right, errR := newRepartShard(p, rightItems, over)
	if errL != nil || errR != nil {
		p.m.compactErrs.Inc()
		s.finishCompact(f)
		return false
	}

	// Swap: under omu (so ownership resolution and the cut table move
	// together) plus the parent's write lock (so the overlay distributed
	// below is final).
	p.omu.Lock()
	if p.topo.Load() != t {
		p.omu.Unlock()
		s.finishCompact(f)
		return false
	}
	s.mu.Lock()

	lbv, rbv := left.base.Load(), right.base.Load()
	// Copy (never move) the overlay written during the rebuild into the
	// children: each live entry routes by its key; if its pre-move copy
	// was rebuilt into the OTHER child's base, a tombstone there hides it.
	for id, seg := range s.overSeg {
		c, o, obv := left, right, rbv
		if shard.WriteKey(p.q, seg.MBR()) >= cut {
			c, o, obv = right, left, lbv
		}
		c.overSeg[id] = seg
		c.delta.Insert(seg.MBR(), id, ops.Null{})
		if _, ok := obv.has[id]; ok {
			o.tombs[id] = struct{}{}
		}
	}
	for id := range s.tombs {
		if _, ok := lbv.has[id]; ok {
			left.tombs[id] = struct{}{}
		} else if _, ok := rbv.has[id]; ok {
			right.tombs[id] = struct{}{}
		}
	}
	pendSince := s.pendSince.Load()
	p.adopt(left, pendSince)
	p.adopt(right, pendSince)
	if checkOwners {
		verifyOwnersLocked(p, "split", t, []*mshard{s}, []*mshard{left, right})
	}

	nt := &topology{gen: t.gen + 1, ownsAll: true}
	nt.cuts = make([]uint64, 0, len(t.cuts)+1)
	nt.cuts = append(nt.cuts, t.cuts[:g+1]...)
	nt.cuts = append(nt.cuts, cut)
	nt.cuts = append(nt.cuts, t.cuts[g+1:]...)
	nt.shards = make([]*mshard, 0, len(t.shards)+1)
	nt.shards = append(nt.shards, t.shards[:g]...)
	nt.shards = append(nt.shards, left, right)
	nt.shards = append(nt.shards, t.shards[g+1:]...)
	nt.local = make(map[int]int, len(nt.shards))
	for i := range nt.shards {
		nt.local[i] = i
	}
	nt.heat = heat.New(len(nt.shards), p.cfg.Adaptive.HalfLifeSeconds)
	for i := 0; i < g; i++ {
		nt.heat.Seed(i, t.heat.Rate(i))
	}
	half := t.heat.Rate(g) / 2
	nt.heat.Seed(g, half)
	nt.heat.Seed(g+1, half)
	for i := g + 1; i < len(t.shards); i++ {
		nt.heat.Seed(i+1, t.heat.Rate(i))
	}
	p.topo.Store(nt)

	s.mu.Unlock()
	p.omu.Unlock()
	p.splits.Add(1)
	p.m.splits.Inc()
	return true
}

// mergeShards merges global ranges g and g+1 of topology t into one shard,
// publishing a t.gen+1 topology with one fewer shard and the boundary cut
// dropped. Abort paths restore both shards via finishCompact.
func (p *Pool) mergeShards(t *topology, g int) bool {
	if !t.ownsAll || g < 0 || g+1 >= len(t.shards) {
		return false
	}
	a, b := t.shards[g], t.shards[g+1]
	fa, fb := freezePairForRepartition(p, a, b)
	if fa == nil {
		return false
	}

	itemsA, over := mergedItems(a.base.Load(), fa)
	itemsB, overB := mergedItems(b.base.Load(), fb)
	items := make([]rtree.Item, 0, len(itemsA)+len(itemsB))
	items = append(items, itemsA...)
	items = append(items, itemsB...)
	for id, seg := range overB {
		over[id] = seg
	}
	merged, err := newRepartShard(p, items, over)
	if err != nil {
		p.m.compactErrs.Inc()
		a.finishCompact(fa)
		b.finishCompact(fb)
		return false
	}

	p.omu.Lock()
	if p.topo.Load() != t {
		p.omu.Unlock()
		a.finishCompact(fa)
		b.finishCompact(fb)
		return false
	}
	lk, hk := a, b
	if lk.li > hk.li {
		lk, hk = hk, lk
	}
	lk.mu.Lock()
	hk.mu.Lock()

	mbv := merged.base.Load()
	var pendSince int64
	for _, s := range [2]*mshard{a, b} {
		for id, seg := range s.overSeg {
			merged.overSeg[id] = seg
			merged.delta.Insert(seg.MBR(), id, ops.Null{})
		}
		if ps := s.pendSince.Load(); ps > 0 && (pendSince == 0 || ps < pendSince) {
			pendSince = ps
		}
	}
	// Tombstones second: an id deleted in one shard and re-inserted into
	// the other during the rebuild is live — the overlay entry alone masks
	// its rebuilt base copy, and skipping the tombstone keeps the overlay
	// and tombstone sets disjoint.
	for _, s := range [2]*mshard{a, b} {
		for id := range s.tombs {
			if _, live := merged.overSeg[id]; live {
				continue
			}
			if _, ok := mbv.has[id]; ok {
				merged.tombs[id] = struct{}{}
			}
		}
	}
	p.adopt(merged, pendSince)
	if checkOwners {
		verifyOwnersLocked(p, "merge", t, []*mshard{a, b}, []*mshard{merged})
	}

	nt := &topology{gen: t.gen + 1, ownsAll: true}
	nt.cuts = make([]uint64, 0, len(t.cuts)-1)
	nt.cuts = append(nt.cuts, t.cuts[:g+1]...)
	nt.cuts = append(nt.cuts, t.cuts[g+2:]...)
	nt.shards = make([]*mshard, 0, len(t.shards)-1)
	nt.shards = append(nt.shards, t.shards[:g]...)
	nt.shards = append(nt.shards, merged)
	nt.shards = append(nt.shards, t.shards[g+2:]...)
	nt.local = make(map[int]int, len(nt.shards))
	for i := range nt.shards {
		nt.local[i] = i
	}
	nt.heat = heat.New(len(nt.shards), p.cfg.Adaptive.HalfLifeSeconds)
	for i := 0; i < g; i++ {
		nt.heat.Seed(i, t.heat.Rate(i))
	}
	nt.heat.Seed(g, t.heat.Rate(g)+t.heat.Rate(g+1))
	for i := g + 2; i < len(t.shards); i++ {
		nt.heat.Seed(i-1, t.heat.Rate(i))
	}
	p.topo.Store(nt)

	hk.mu.Unlock()
	lk.mu.Unlock()
	p.omu.Unlock()
	p.merges.Add(1)
	p.m.merges.Inc()
	return true
}
