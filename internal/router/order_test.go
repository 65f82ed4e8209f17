package router

import (
	"math/rand"
	"net"
	"testing"

	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
	"mobispatial/internal/serve"
	"mobispatial/internal/serve/client"
)

// TestRouterTierAnswersAscending checks that point, range and filter answers
// reach the client sorted through a router-fronted server, single and
// batched, with the router-tier cache off (grouped batch legs) and on
// (per-item cache probes; the second round answers from the cache).
func TestRouterTierAnswersAscending(t *testing.T) {
	ds := clusterDataset(t)
	tc := startCluster(t, ds, 3, 2)
	r := newRouter(t, tc, nil)
	for _, cached := range []bool{false, true} {
		cfg := serve.Config{Pool: r}
		if cached {
			cfg.Cache = qcache.New(qcache.Config{CellSize: 256})
		}
		front, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go front.Serve(lis)
		t.Cleanup(func() { front.Close() })
		c, err := client.New(client.Config{Addr: lis.Addr().String(), Conns: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })

		qs := mixedBatch(rand.New(rand.NewSource(73)), ds.Extent, 24)
		for round := 0; round < 2; round++ {
			res, err := c.QueryBatch(qs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range qs {
				if res[i].Err != nil {
					t.Fatal(res[i].Err)
				}
				checkAscending(t, "batch item", res[i].IDs)
				q := &qs[i]
				var ids []uint32
				switch {
				case q.Mode == proto.ModeFilter:
					ids, err = c.FilterRange(q.Window)
				case q.Kind == proto.KindPoint:
					ids, err = c.PointIDs(q.Point, q.Eps)
				default:
					ids, err = c.RangeIDs(q.Window)
				}
				if err != nil {
					t.Fatal(err)
				}
				checkAscending(t, "single answer", ids)
			}
		}
	}
}

func checkAscending(t *testing.T, label string, ids []uint32) {
	t.Helper()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("%s: id %d at %d follows %d", label, ids[i], i, ids[i-1])
		}
	}
}
