package main

// model.go prices work in the paper's units: the client CPU cycles and
// Joules a query costs when answered locally (Table 3 client, fully-client
// scheme), and the radio Joules the client's measured traffic costs when
// the query is offloaded.

import (
	"fmt"

	"mobispatial/internal/core"
	"mobispatial/internal/dataset"
	"mobispatial/internal/obs"
	"mobispatial/internal/ops"
	"mobispatial/internal/proto"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve/client"
	"mobispatial/internal/sim"
)

// baseBandwidthBps is the paper's base wireless bandwidth (2 Mbps).
const baseBandwidthBps = 2e6

// modeledQueries is how many reads, the first of each run's read sequence,
// the local-execution model prices. The set depends on the seed alone, so
// the modeled column repeats exactly for a fixed seed.
const modeledQueries = 256

// localCost is the modeled cost of answering reads on the client.
type localCost struct {
	nodesPerQuery  float64 // R-tree nodes visited (ops.Counts)
	mcyclesPerQ    float64 // client cycles, millions
	microJoulesPer float64 // client processor energy, µJ
}

// modelLocal runs qs through the paper's fully-client scheme on the Table 3
// client model over a monolithic R-tree, warm caches carried from query to
// query, and checks each answer against the oracle.
func modelLocal(ds *dataset.Dataset, tree *rtree.Tree, qs []query, wants []want) (localCost, error) {
	sys, err := sim.New(sim.DefaultParams())
	if err != nil {
		return localCost{}, err
	}
	eng := core.NewEngineWithTree(ds, tree, sys)
	var cnt ops.Counts
	var cycles int64
	var joules float64
	for i := range qs {
		q := &qs[i]
		var cq core.Query
		switch q.kind {
		case proto.KindPoint:
			tree.SearchPoint(q.pt, &cnt)
			cq = core.Point(q.pt)
		case proto.KindRange:
			tree.Search(q.win, &cnt)
			cq = core.Range(q.win)
		default:
			pt := q.pt
			tree.KNearest(pt, q.k, func(id uint32) float64 { return ds.Seg(id).DistToPoint(pt) }, &cnt)
			cq = core.KNearest(q.pt, q.k)
		}
		pre := sys.Result()
		ans, err := eng.Run(cq, core.FullyClient, core.DataAtClient)
		if err != nil {
			return localCost{}, err
		}
		post := sys.Result()
		cycles += post.ProcessorCycles - pre.ProcessorCycles
		joules += post.Energy.Processor - pre.Energy.Processor
		if q.kind != proto.KindNN && !wants[i].matchIDs(ans.IDs, uint32(ds.Len())) {
			return localCost{}, fmt.Errorf("modeled %s query %d disagrees with the oracle", kindName[q.kind], i)
		}
	}
	n := float64(len(qs))
	return localCost{
		nodesPerQuery:  float64(cnt.Ops[ops.OpNodeVisit]) / n,
		mcyclesPerQ:    float64(cycles) / n / 1e6,
		microJoulesPer: joules / n * 1e6,
	}, nil
}

// wireDelta is the client's wire traffic over one phase.
type wireDelta struct{ client.WireStats }

func wireSince(c *client.Client, pre client.WireStats) wireDelta {
	w := c.WireStats()
	return wireDelta{client.WireStats{
		FramesTx: w.FramesTx - pre.FramesTx, FramesRx: w.FramesRx - pre.FramesRx,
		BytesTx: w.BytesTx - pre.BytesTx, BytesRx: w.BytesRx - pre.BytesRx,
		Exchanges: w.Exchanges - pre.Exchanges, Queries: w.Queries - pre.Queries,
	}}
}

// nicMilliJoulesPerQuery prices the traffic with the paper's NIC model at
// the base bandwidth: transmit and receive time plus one wakeup per
// exchange, per answered request.
func (w wireDelta) nicMilliJoulesPerQuery() float64 {
	if w.Queries == 0 {
		return 0
	}
	j := obs.DefaultEnergyModel().NICExchangeJoules(int(w.BytesTx), int(w.BytesRx), int(w.Exchanges), baseBandwidthBps)
	return j / float64(w.Queries) * 1e3
}

func (w wireDelta) perQuery(x uint64) float64 {
	if w.Queries == 0 {
		return 0
	}
	return float64(x) / float64(w.Queries)
}
