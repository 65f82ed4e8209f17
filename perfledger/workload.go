package main

// workload.go makes each workload's inputs from the seed and precomputes
// the answer oracle before any timing starts.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/roadnet"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve"
)

// Query mix and shape, shared by all three workloads.
const (
	pointShare = 0.60 // then range 0.25, nn 0.15
	rangeShare = 0.25
	knnK       = 8
	narrowHalf = 1000.0  // range half-width in map units (m)
	wideHalf   = 12000.0 // atlas_uniform's wide windows
	wideShare  = 0.10
)

// query is one read. win is set for range queries, pt otherwise.
type query struct {
	kind uint8 // proto.KindPoint, KindRange or KindNN
	pt   geom.Point
	win  geom.Rect
	k    int
}

func (q *query) center() geom.Point {
	if q.kind == proto.KindRange {
		return q.win.Center()
	}
	return q.pt
}

// msg renders q as an id-mode wire query.
func (q *query) msg() proto.QueryMsg {
	return proto.QueryMsg{Kind: q.kind, Mode: proto.ModeIDs, K: uint16(q.k), Point: q.pt, Window: q.win}
}

// kindName indexes per-kind latency lists.
var kindName = [3]string{"point", "range", "nn"}

// class is one class of the query mix: a kind and, for range queries, the
// window's half-width.
type class struct {
	kind uint8
	half float64
}

// at makes the query of class c at position p.
func (c class) at(p geom.Point) query {
	switch c.kind {
	case proto.KindRange:
		return query{kind: proto.KindRange, win: geom.Rect{
			Min: geom.Point{X: p.X - c.half, Y: p.Y - c.half}, Max: geom.Point{X: p.X + c.half, Y: p.Y + c.half}}}
	case proto.KindNN:
		return query{kind: proto.KindNN, pt: p, k: knnK}
	default:
		return query{kind: proto.KindPoint, pt: p}
	}
}

// classShare is one class of the mix and its share of the queries.
type classShare struct {
	c     class
	share float64
}

// mixShares are the classes of the mix; wide is the share of range
// queries that are wide.
func mixShares(wide float64) []classShare {
	return []classShare{
		{class{proto.KindPoint, 0}, pointShare},
		{class{proto.KindRange, narrowHalf}, rangeShare * (1 - wide)},
		{class{proto.KindRange, wideHalf}, rangeShare * wide},
		{class{proto.KindNN, 0}, 1 - pointShare - rangeShare},
	}
}

// drawQuery draws one query of the mix (narrow windows only) at position p.
func drawQuery(rng *rand.Rand, p geom.Point) query {
	u := rng.Float64()
	for _, x := range mixShares(0) {
		if u < x.share {
			return x.c.at(p)
		}
		u -= x.share
	}
	return class{kind: proto.KindNN}.at(p)
}

// mixClasses returns n classes in consecutive blocks of block classes,
// each holding the mix's exact proportions (up to rounding) in a seeded
// random order. Any stretch of a few blocks then carries the mix, on every
// seed, so per-query costs do not swing with a seed's count of range or
// wide queries.
func mixClasses(rng *rand.Rand, n, block int, wide float64) []class {
	out := make([]class, 0, n)
	for len(out) < n {
		m := min(block, n-len(out))
		b := len(out)
		cum := 0.0
		for _, x := range mixShares(wide) {
			cum += x.share
			for len(out) < b+min(m, int(math.Round(cum*float64(m)))) {
				out = append(out, x.c)
			}
		}
		for len(out) < b+m {
			out = append(out, class{kind: proto.KindNN})
		}
		blk := out[b:]
		rng.Shuffle(m, func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	return out
}

// atlasPool's stratification: the side, in cells, of the grid over the
// extent that each class of the mix is spread across, and the block of
// queries that holds the mix exactly (one wide window in each).
const (
	atlasGrid  = 16
	atlasBlock = 40
)

// atlasPool draws n queries uniform over the extent; the run cycles
// through them. The draw is stratified: every block of atlasBlock queries
// holds the mix exactly, and the members of each class visit the grid's
// cells round-robin in a seeded order, uniform within a cell. The rare wide windows thus cover
// the map evenly on every seed instead of clustering in dense or empty
// parts of it, which swung the per-query reply bytes by several percent.
func atlasPool(ds *dataset.Dataset, n int, seed int64) []query {
	rng := rand.New(rand.NewSource(seed))
	cells := rng.Perm(atlasGrid * atlasGrid)
	placed := map[class]int{}
	ext := ds.Extent
	w, h := ext.Width()/atlasGrid, ext.Height()/atlasGrid
	out := make([]query, n)
	for i, c := range mixClasses(rng, n, atlasBlock, wideShare) {
		cell := cells[placed[c]%len(cells)]
		placed[c]++
		p := geom.Point{
			X: ext.Min.X + (float64(cell%atlasGrid)+rng.Float64())*w,
			Y: ext.Min.Y + (float64(cell/atlasGrid)+rng.Float64())*h,
		}
		out[i] = c.at(p)
	}
	return out
}

// Hotspot workload shape.
const (
	hotspots     = 64
	hotPositions = 64   // distinct query positions per hotspot
	hotJitter    = 64.0 // position spread around a centre, map units
	zipfS        = 1.2
	batchSize    = 16
)

// hotCentreSeed fixes where the hotspots are, like the dataset itself:
// the workload seed varies the traffic over them (positions around each
// centre, query kinds, the Zipf draws), not the map's hot places, whose
// density would otherwise swing every per-query cost from seed to seed.
const hotCentreSeed = 1

// hotPool draws the hot set: hotPositions queries around each of the
// density-sampled hotspot centres (segment midpoints), hotspot h's queries
// at pool[h*hotPositions:]. Positions repeat exactly, so the hot set has a
// bounded key space the router cache can hold. Every hotspot carries the
// mix's exact proportions, so the few hottest ones, which take most of the
// Zipf traffic, do not swing the per-query cost with their seeded mix.
func hotPool(ds *dataset.Dataset, seed int64) []query {
	crng := rand.New(rand.NewSource(hotCentreSeed))
	rng := rand.New(rand.NewSource(seed))
	out := make([]query, 0, hotspots*hotPositions)
	for h := 0; h < hotspots; h++ {
		c := ds.Segments[crng.Intn(ds.Len())].Midpoint()
		for _, cl := range mixClasses(rng, hotPositions, hotPositions, 0) {
			p := geom.Point{X: c.X + (rng.Float64()-0.5)*2*hotJitter, Y: c.Y + (rng.Float64()-0.5)*2*hotJitter}
			out = append(out, cl.at(p))
		}
	}
	return out
}

// hotSequence draws n pool indices: a Zipf(s) hotspot, then a uniform
// position within it.
func hotSequence(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	z := rand.NewZipf(rng, zipfS, 1, hotspots-1)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(int(z.Uint64())*hotPositions + rng.Intn(hotPositions))
	}
	return out
}

// fleet is the moving_fleet input: each vehicle's sequence of road
// segments, one per step, and the read issued near it at each step.
type fleet struct {
	base  uint32           // vehicle v has object id base+v
	segs  [][]geom.Segment // segs[v][k]: vehicle v's position at its step k
	reads []query          // reads[i]: the read of global step i
}

// makeFleet routes vehicles along shortest paths between random nodes of
// the road network's largest component until each has steps positions.
// Global step i moves vehicle i % vehicles to its position i / vehicles.
func makeFleet(ds *dataset.Dataset, vehicles, steps int, seed int64) (*fleet, error) {
	g, err := roadnet.Build(ds, 50, ops.Null{})
	if err != nil {
		return nil, fmt.Errorf("road network: %w", err)
	}
	comp := g.LargestComponentNodes()
	if len(comp) < 2 {
		return nil, fmt.Errorf("road network has no routable component")
	}
	rng := rand.New(rand.NewSource(seed))
	f := &fleet{base: uint32(ds.Len()), segs: make([][]geom.Segment, vehicles)}
	for v := range f.segs {
		node := comp[rng.Intn(len(comp))]
		for len(f.segs[v]) < steps {
			dst := comp[rng.Intn(len(comp))]
			if dst == node {
				continue
			}
			rt, ok := g.RouteBetweenNodes(node, dst, ops.Null{})
			if !ok || len(rt.SegIDs) == 0 {
				continue
			}
			for _, id := range rt.SegIDs {
				f.segs[v] = append(f.segs[v], ds.Seg(id))
			}
			node = dst
		}
		f.segs[v] = f.segs[v][:steps]
	}
	f.reads = make([]query, vehicles*steps)
	for i := range f.reads {
		f.reads[i] = drawQuery(rng, f.pos(i).Midpoint())
	}
	return f, nil
}

func (f *fleet) vehicle(i int) int { return i % len(f.segs) }

// pos is the segment global step i moves its vehicle onto.
func (f *fleet) pos(i int) geom.Segment { return f.segs[i%len(f.segs)][i/len(f.segs)] }

// want is a read's precomputed answer over the base dataset: for point and
// range queries the size and an order-independent hash of the id set, for
// NN queries the ascending neighbour distances.
type want struct {
	n     int
	sum   uint64
	dists []float64
}

// idHash is splitmix64's finalizer: summed over a set it gives an
// order-independent fingerprint.
func idHash(id uint32) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// oracle answers queries on a monolithic packed R-tree over the base
// dataset, with the executors' refinement predicates.
type oracle struct {
	ds   *dataset.Dataset
	tree *rtree.Tree
}

func newOracle(ds *dataset.Dataset) (*oracle, error) {
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		return nil, err
	}
	return &oracle{ds: ds, tree: tree}, nil
}

func (o *oracle) answer(q *query) want {
	var w want
	switch q.kind {
	case proto.KindPoint:
		for _, id := range o.tree.SearchPoint(q.pt, ops.Null{}) {
			if o.ds.Seg(id).ContainsPoint(q.pt, serve.DefaultPointEps) {
				w.n++
				w.sum += idHash(id)
			}
		}
	case proto.KindRange:
		for _, id := range o.tree.Search(q.win, ops.Null{}) {
			if o.ds.Seg(id).IntersectsRect(q.win) {
				w.n++
				w.sum += idHash(id)
			}
		}
	default:
		pt := q.pt
		nbs := o.tree.KNearest(pt, q.k, func(id uint32) float64 { return o.ds.Seg(id).DistToPoint(pt) }, ops.Null{})
		for _, nb := range nbs {
			w.dists = append(w.dists, nb.Dist)
		}
	}
	return w
}

func (o *oracle) answers(qs []query) []want {
	out := make([]want, len(qs))
	for i := range qs {
		out[i] = o.answer(&qs[i])
	}
	return out
}

// matchIDs reports whether the base-dataset ids (those below static) of a
// point or range answer are exactly w's set; ids at or above static are
// vehicles, which the oracle does not know.
func (w *want) matchIDs(ids []uint32, static uint32) bool {
	n, sum := 0, uint64(0)
	for _, id := range ids {
		if id < static {
			n++
			sum += idHash(id)
		}
	}
	return n == w.n && sum == w.sum
}

const distTol = 1e-6

// matchNN checks a k-NN answer given as (distance, is-base-object) pairs.
// Over a read-only world the distances must equal the oracle's. With
// vehicles present, vehicles can only push base objects out of the tail,
// so the base objects returned must be exactly the oracle's nearest ones.
// A vehicle's distance is not checked: a data-mode reply resolves each
// record's geometry after the k-NN ran, so a vehicle moved in between is
// reported at its newer position.
func (w *want) matchNN(got []float64, base []bool, vehicles bool) bool {
	if len(got) != len(w.dists) {
		return false
	}
	var b []float64
	for i, d := range got {
		if base[i] {
			b = append(b, d)
		} else if !vehicles {
			return false
		}
	}
	sort.Float64s(b)
	for r, d := range b {
		if math.Abs(d-w.dists[r]) > distTol*math.Max(1, w.dists[r]) {
			return false
		}
	}
	return true
}
