package main

// layers.go is the benchmark's one adapter onto the system's packages: it
// builds the deployments from their public constructors and holds every
// call the traced run replays into a layer's read functions. A change to
// the executor contract edits this file and no other.

import (
	"fmt"
	"net"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/obs"
	"mobispatial/internal/ops"
	"mobispatial/internal/parallel"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/router"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/shard"
)

// Deployment shapes. The single server is `mqserve -mutable` (4 updatable
// shards, no result cache); the cluster is three `mqserve -partition i/3
// -replicas 2 -mutable` backends behind `mqrouter -qcache 32`.
const (
	singleShards    = 4
	clusterBackends = 3
	clusterReplicas = 2
	routerCacheMB   = 32
	clientConns     = 2
)

// deployment is one running system under test on loopback TCP.
type deployment struct {
	// frontHub is the client-facing server's hub (the single server, or
	// the router tier); the router and the result cache share it, as in
	// mqrouter.
	frontHub *obs.Hub
	addr     string
	cache    *qcache.Cache
	router   *router.Router
	// pools[b] is backend b's executor and poolHubs[b] the hub its
	// mutable pool and serve loop share (the single server is backend 0,
	// whose hub is frontHub).
	pools    []*mutable.Pool
	poolHubs []*obs.Hub
	// ownerOf maps a query's centre to the backend whose pool the traced
	// run replays it against.
	ownerOf func(geom.Point) int
	stops   []func()
}

// listen serves srv on a fresh loopback port and registers its teardown.
func (d *deployment) listen(srv *serve.Server) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis) // returns once Close shuts the listener
	}()
	d.stops = append(d.stops, func() {
		srv.Close()
		<-done
	})
	return lis.Addr().String(), nil
}

// close tears the deployment down front to back and waits for every
// goroutine it started.
func (d *deployment) close() {
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
	d.stops = nil
}

// buildSingle deploys the single mutable server over ds.
func buildSingle(ds *dataset.Dataset) (*deployment, error) {
	d := &deployment{frontHub: obs.NewHub()}
	mp, err := mutable.NewFromDataset(ds, singleShards, mutable.Config{Obs: d.frontHub})
	if err != nil {
		return nil, err
	}
	d.stops = append(d.stops, mp.Close)
	d.pools = []*mutable.Pool{mp}
	d.poolHubs = []*obs.Hub{d.frontHub}
	d.ownerOf = func(geom.Point) int { return 0 }
	srv, err := serve.New(serve.Config{Pool: mp, Obs: d.frontHub})
	if err != nil {
		d.close()
		return nil, err
	}
	if d.addr, err = d.listen(srv); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// buildCluster deploys three partitioned, replicated mutable backends and
// the caching router in front of them. Each backend partitions its own copy
// of the item list, as separate processes would.
func buildCluster(ds *dataset.Dataset) (*deployment, error) {
	d := &deployment{frontHub: obs.NewHub()}
	addrs := make([]string, clusterBackends)
	for b := 0; b < clusterBackends; b++ {
		ranges, bounds := shard.PartitionHilbert(ds.Items(), clusterBackends, 0)
		if len(ranges) != clusterBackends {
			d.close()
			return nil, fmt.Errorf("dataset yields %d ranges, want %d", len(ranges), clusterBackends)
		}
		idxs, err := shard.ReplicaRanges(b, clusterBackends, clusterReplicas)
		if err != nil {
			d.close()
			return nil, err
		}
		cuts := make([]uint64, len(ranges))
		for i, rg := range ranges {
			cuts[i] = rg.Lo
		}
		var held []shard.Range
		var info []proto.RangeInfo
		for _, ri := range idxs {
			rg := ranges[ri]
			held = append(held, rg)
			info = append(info, proto.RangeInfo{
				Index: uint32(rg.Index), Items: uint32(len(rg.Items)),
				Lo: rg.Lo, Hi: rg.Hi, MBR: rg.MBR,
			})
		}
		hub := obs.NewHub()
		mp, err := mutable.New(mutable.Config{
			Dataset: ds, Ranges: held, Cuts: cuts, GlobalIndex: idxs,
			Bounds: bounds, Obs: hub,
		})
		if err != nil {
			d.close()
			return nil, err
		}
		d.stops = append(d.stops, mp.Close)
		srv, err := serve.New(serve.Config{Pool: mp, Obs: hub, Ranges: info, NumRanges: clusterBackends})
		if err != nil {
			d.close()
			return nil, err
		}
		if addrs[b], err = d.listen(srv); err != nil {
			d.close()
			return nil, err
		}
		d.pools = append(d.pools, mp)
		d.poolHubs = append(d.poolHubs, hub)
		if b == 0 {
			q := shard.QuantizerFor(bounds, 0)
			// Range r's primary is backend r under rotation placement.
			d.ownerOf = func(pt geom.Point) int {
				return shard.RangeForKey(cuts, shard.WriteKey(q, geom.Rect{Min: pt, Max: pt}))
			}
		}
	}
	r, err := router.New(router.Config{Backends: addrs, Dataset: ds, Obs: d.frontHub})
	if err != nil {
		d.close()
		return nil, err
	}
	d.stops = append(d.stops, func() { r.Close() })
	d.router = r
	d.cache = qcache.New(qcache.Config{MaxBytes: routerCacheMB << 20, Obs: d.frontHub})
	srv, err := serve.New(serve.Config{Pool: r, Obs: d.frontHub, Cache: d.cache})
	if err != nil {
		d.close()
		return nil, err
	}
	if d.addr, err = d.listen(srv); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// dial opens the benchmark's client: at most clientConns connections.
func (d *deployment) dial() (*client.Client, error) {
	return client.New(client.Config{Addr: d.addr, Conns: clientConns})
}

// hubs returns every hub of the deployment, front first, each once.
func (d *deployment) hubs() []*obs.Hub {
	out := []*obs.Hub{d.frontHub}
	for _, h := range d.poolHubs {
		if h != d.frontHub {
			out = append(out, h)
		}
	}
	return out
}

// replayScratch is one worker's reusable state for layer replays.
type replayScratch struct {
	ids []uint32
	nbs []rtree.Neighbor
	psc parallel.Scratch
	nn  rtree.NNScratch
}

// replayRouter answers q through the router's fallible executor surface,
// bypassing the front serve loop and its result cache.
func (d *deployment) replayRouter(q *query, sc *replayScratch) error {
	deadline := time.Now().Add(5 * time.Second)
	var err error
	switch q.kind {
	case proto.KindPoint:
		sc.ids, err = d.router.PointAppendUntil(sc.ids[:0], q.pt, serve.DefaultPointEps, deadline)
	case proto.KindRange:
		sc.ids, err = d.router.RangeAppendUntil(sc.ids[:0], q.win, deadline)
	default:
		sc.nbs, err = d.router.KNearestAppendUntil(sc.nbs[:0], q.pt, q.k, &sc.psc, deadline)
	}
	return err
}

// replayPool answers q on the executor of the backend owning its centre.
func (d *deployment) replayPool(q *query, sc *replayScratch) {
	mp := d.pools[d.ownerOf(q.center())]
	switch q.kind {
	case proto.KindPoint:
		sc.ids = mp.PointAppend(sc.ids[:0], q.pt, serve.DefaultPointEps)
	case proto.KindRange:
		sc.ids = mp.RangeAppend(sc.ids[:0], q.win)
	default:
		sc.nbs, _ = mp.KNearestAppend(sc.nbs[:0], q.pt, q.k, &sc.psc)
	}
}

// replayTree runs q's index walk and refinement on a monolithic packed
// R-tree over the base dataset, refining candidates in place as the
// executors do.
func replayTree(tree *rtree.Tree, ds *dataset.Dataset, q *query, sc *replayScratch) {
	switch q.kind {
	case proto.KindPoint:
		sc.ids = tree.AppendSearchPoint(sc.ids[:0], q.pt, ops.Null{})
		hits := sc.ids[:0]
		for _, id := range sc.ids {
			if ds.Seg(id).ContainsPoint(q.pt, serve.DefaultPointEps) {
				hits = append(hits, id)
			}
		}
		sc.ids = hits
	case proto.KindRange:
		sc.ids = tree.AppendSearch(sc.ids[:0], q.win, ops.Null{})
		hits := sc.ids[:0]
		for _, id := range sc.ids {
			if ds.Seg(id).IntersectsRect(q.win) {
				hits = append(hits, id)
			}
		}
		sc.ids = hits
	default:
		sc.nbs = tree.KNearestAppend(sc.nbs[:0], q.pt, q.k, sc.psc.DistTo(ds, q.pt), ops.Null{}, &sc.nn)
	}
}

// overlayState samples the mutable tier: the largest pending overlay and
// the largest staleness gauge of any shard on any backend.
func (d *deployment) overlayState() (pending int, staleS float64) {
	for b, mp := range d.pools {
		for i := 0; i < mp.NumShards(); i++ {
			if p := mp.Pending(i); p > pending {
				pending = p
			}
			g := d.poolHubs[b].Reg.Gauge(obs.Name("mutable_staleness_seconds", "shard", fmt.Sprint(i)))
			if v := g.Value(); v > staleS {
				staleS = v
			}
		}
	}
	return pending, staleS
}

// divergentRanges reads the router's divergent-range gauge (0 without a
// router).
func (d *deployment) divergentRanges() float64 {
	if d.router == nil {
		return 0
	}
	return d.frontHub.Reg.Gauge("router_ranges_divergent").Value()
}
