package mutable

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/rtree"
	"mobispatial/internal/shard"
)

// TestNewDoesNotRetainCallerItems checks New's promise that the caller's
// item slices are not retained: once the caller drops its Ranges, the item
// array they alias must become garbage while the pool lives on.
func TestNewDoesNotRetainCallerItems(t *testing.T) {
	ds := randomDataset(rand.New(rand.NewSource(5)), 3000)
	freed := make(chan struct{})
	p := func() *Pool {
		items := ds.Items()
		runtime.SetFinalizer(&items[0], func(*rtree.Item) { close(freed) })
		ranges, bounds := shard.PartitionHilbert(items, 4, 0)
		cuts := make([]uint64, len(ranges))
		for i, r := range ranges {
			cuts[i] = r.Lo
		}
		p, err := New(Config{Dataset: ds, Ranges: ranges, Cuts: cuts, Bounds: bounds, CompactInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}()
	defer p.Close()

	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			if p.Len() != ds.Len() {
				t.Fatalf("pool holds %d items, want %d", p.Len(), ds.Len())
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("the caller's item array is still reachable from the pool")
}

// requireBaseIsPackOrder fails unless every shard's base item list is its
// tree's pack order — the same memory, not an equal copy.
func requireBaseIsPackOrder(t *testing.T, p *Pool, when string) {
	t.Helper()
	for i, s := range p.topo.Load().shards {
		bv := s.base.Load()
		order := bv.tree.PackOrder()
		if len(bv.items) != len(order) || len(order) == 0 {
			t.Fatalf("%s: shard %d base has %d items, pack order %d", when, i, len(bv.items), len(order))
		}
		if &bv.items[0] != &order[0] {
			t.Fatalf("%s: shard %d base items are a copy of the pack order", when, i)
		}
	}
}

// TestBaseItemsSharePackOrder checks that every way a base is (re)built —
// the initial build, a compaction folding a non-empty overlay, a split and a
// merge — leaves baseView.items aliasing the tree's pack order.
func TestBaseItemsSharePackOrder(t *testing.T) {
	p := adaptiveTestPool(t, 2000, 2)
	requireBaseIsPackOrder(t, p, "New")

	base := p.Dataset().Len()
	seg := geom.Segment{A: geom.Point{X: 500, Y: 500}, B: geom.Point{X: 520, Y: 530}}
	if _, _, _, err := p.ApplyInsert(uint32(base), seg); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := p.ApplyDelete(3); err != nil {
		t.Fatal(err)
	}
	if p.Pending(0)+p.Pending(1) == 0 {
		t.Fatal("writes left no overlay to compact")
	}
	p.ForceCompact()
	requireBaseIsPackOrder(t, p, "ForceCompact")

	if !p.splitShard(p.topo.Load(), 0) {
		t.Fatal("split failed")
	}
	requireBaseIsPackOrder(t, p, "split")
	if !p.mergeShards(p.topo.Load(), 0) {
		t.Fatal("merge failed")
	}
	requireBaseIsPackOrder(t, p, "merge")
}

// TestPoolHeapPerItem bounds the live heap a pool adds per indexed item on
// the PA dataset. It guards against a second copy of the base items: a
// pool that keeps the caller's partitioned item list, or a base item list
// beside the tree's pack order, adds 40 B per item and fails the budget.
// Not parallel: it reads process-wide heap statistics.
func TestPoolHeapPerItem(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes heap accounting")
	}
	const budget = 128 // bytes per item
	ds := dataset.PA()
	before := liveHeap()
	p, err := NewFromDataset(ds, 4, Config{CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	after := liveHeap()
	runtime.KeepAlive(p)
	runtime.KeepAlive(ds)

	perItem := float64(after-before) / float64(ds.Len())
	t.Logf("pool heap: %.1f B/item over %d items", perItem, ds.Len())
	if perItem > budget {
		t.Fatalf("pool holds %.1f B of live heap per item, budget %d", perItem, budget)
	}
}

// liveHeap returns HeapAlloc after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
