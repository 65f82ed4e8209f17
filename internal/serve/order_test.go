package serve

import (
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"mobispatial/internal/geom"
	"mobispatial/internal/proto"
	"mobispatial/internal/qcache"
)

// checkAscending fails unless ids is strictly ascending — the order the
// server sends point, range and filter answers in.
func checkAscending(t *testing.T, label string, ids []uint32) {
	t.Helper()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("%s: id %d at %d follows %d", label, ids[i], i, ids[i-1])
		}
	}
}

// TestSetAnswersArriveAscending checks that set answers come back sorted
// over the wire, single and batched, with the result cache off and on (the
// second round on the cached server answers from the cache).
func TestSetAnswersArriveAscending(t *testing.T) {
	for _, cached := range []bool{false, true} {
		ds, _, _, addr := testWorld(t, func(cfg *Config) {
			if cached {
				cfg.Cache = qcache.New(qcache.Config{CellSize: 256})
			}
		})
		c := newClient(t, addr, 1)
		rng := rand.New(rand.NewSource(17))
		var qs []proto.QueryMsg
		for i := 0; i < 24; i++ {
			pt := geom.Point{
				X: ds.Extent.Min.X + rng.Float64()*ds.Extent.Width(),
				Y: ds.Extent.Min.Y + rng.Float64()*ds.Extent.Height(),
			}
			half := 200 + rng.Float64()*3000
			w := geom.Rect{Min: geom.Point{X: pt.X - half, Y: pt.Y - half}, Max: geom.Point{X: pt.X + half, Y: pt.Y + half}}
			qs = append(qs,
				proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeIDs, Window: w},
				proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeFilter, Window: w},
				proto.QueryMsg{Kind: proto.KindRange, Mode: proto.ModeData, Window: w},
				proto.QueryMsg{Kind: proto.KindPoint, Mode: proto.ModeIDs, Point: pt, Eps: 400})
		}
		for round := 0; round < 2; round++ {
			res, err := c.QueryBatch(qs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range res {
				if res[i].Err != nil {
					t.Fatal(res[i].Err)
				}
				ids := res[i].IDs
				for _, r := range res[i].Records {
					ids = append(ids, r.ID)
				}
				checkAscending(t, "batch item", ids)
			}
			for _, q := range qs {
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

// TestKNNIDsKeepDistanceOrder checks that an id-mode k-NN reply crosses the
// wire in the executor's distance order — id deltas of both signs — single
// and batched.
func TestKNNIDsKeepDistanceOrder(t *testing.T) {
	ds, pool, _, addr := testWorld(t, nil)
	c := newClient(t, addr, 1)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))

	rng := rand.New(rand.NewSource(23))
	falls := 0
	for i := 0; i < 20; i++ {
		pt := geom.Point{
			X: ds.Extent.Min.X + rng.Float64()*ds.Extent.Width(),
			Y: ds.Extent.Min.Y + rng.Float64()*ds.Extent.Height(),
		}
		nbs, _ := pool.KNearest(pt, 32)
		want := make([]uint32, len(nbs))
		for j, nb := range nbs {
			want[j] = nb.ID
			if j > 0 && want[j] < want[j-1] {
				falls++
			}
		}
		q := proto.QueryMsg{ID: uint32(i + 1), Kind: proto.KindNN, Mode: proto.ModeIDs, Point: pt, K: 32}
		if _, err := proto.WriteMessage(nc, &q); err != nil {
			t.Fatal(err)
		}
		msg, _, err := proto.ReadMessage(nc)
		if err != nil {
			t.Fatal(err)
		}
		if lst, ok := msg.(*proto.IDListMsg); !ok || !sameIDs(lst.IDs, want) {
			t.Fatalf("query %d: single k-NN reply %+v, want ids %v in distance order", i, msg, want)
		}
		res, err := c.QueryBatch([]proto.QueryMsg{q})
		if err != nil || res[0].Err != nil {
			t.Fatalf("batch: %v / %v", err, res[0].Err)
		}
		if !sameIDs(res[0].IDs, want) {
			t.Fatalf("query %d: batched k-NN ids %v, want %v", i, res[0].IDs, want)
		}
	}
	if falls == 0 {
		t.Fatal("no k-NN answer had a falling id: negative deltas went untested")
	}
}

// TestSortIDsMatchesSort checks the radix path against slices.Sort across
// the threshold, for ids needing one to three passes, and that a warm sort
// allocates nothing.
func TestSortIDsMatchesSort(t *testing.T) {
	var sc reqScratch
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 1, radixMinIDs - 1, radixMinIDs, 3000} {
		for _, top := range []int64{1, 2, 1 << 11, 1<<11 + 1, 139_006, 1 << 32} {
			ids := make([]uint32, n)
			for i := range ids {
				ids[i] = uint32(rng.Int63n(top))
			}
			want := slices.Clone(ids)
			slices.Sort(want)
			sc.sortIDs(ids)
			if !slices.Equal(ids, want) {
				t.Fatalf("n=%d top=%d: sortIDs disagrees with slices.Sort", n, top)
			}
		}
	}
	if raceEnabled {
		return
	}
	ids := make([]uint32, 3000)
	if a := testing.AllocsPerRun(20, func() {
		for i := range ids {
			ids[i] = uint32(len(ids) - i)
		}
		sc.sortIDs(ids)
	}); a != 0 {
		t.Fatalf("warm sortIDs: %.1f allocs, want 0", a)
	}
}
