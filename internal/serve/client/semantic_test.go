package client_test

import (
	"math"
	"net"
	"testing"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/geom"
	"mobispatial/internal/mutable"
	"mobispatial/internal/obs"
	"mobispatial/internal/ops"
	"mobispatial/internal/parallel"
	"mobispatial/internal/rtree"
	"mobispatial/internal/serve"
	"mobispatial/internal/serve/client"
)

// semanticDataset is the shared world for the semantic-cache tests.
func semanticDataset(t testing.TB) (*dataset.Dataset, *rtree.Tree) {
	t.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{
		Name:           "semantic-test",
		NumSegments:    8000,
		RecordBytes:    76,
		Extent:         geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 50000, Y: 50000}},
		Clusters:       6,
		ClusterStdFrac: 0.08,
		UniformFrac:    0.25,
		StreetSegs:     [2]int{2, 8},
		SegLen:         [2]float64{40, 160},
		GridBias:       0.6,
		Seed:           23,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	tree, err := rtree.Build(ds.Items(), rtree.Config{}, ops.Null{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return ds, tree
}

// startSemServer serves pool on loopback and returns the address.
func startSemServer(t testing.TB, cfg serve.Config) string {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String()
}

// fetchWholeShipment pulls a shipment big enough to cover the whole dataset
// through a throwaway plain client.
func fetchWholeShipment(t testing.TB, addr string, ds *dataset.Dataset) *client.Shipment {
	t.Helper()
	c, err := client.New(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer c.Close()
	center := ds.Extent.Center()
	window := geom.Rect{
		Min: geom.Point{X: center.X - 2000, Y: center.Y - 2000},
		Max: geom.Point{X: center.X + 2000, Y: center.Y + 2000},
	}
	ship, err := c.FetchShipment(window, 8000*(ds.RecordBytes+rtree.EntryBytes)+1<<20, ds.RecordBytes)
	if err != nil {
		t.Fatalf("shipment: %v", err)
	}
	return ship
}

// TestSemanticCacheServesLocally is the happy path over a static pool: after
// one wire exchange primes the epoch hint, every covered non-filter query is
// answered from the shipment with the radio off — zero new exchanges, answers
// identical to the server's, and a growing saved-NIC-energy ledger.
func TestSemanticCacheServesLocally(t *testing.T) {
	ds, tree := semanticDataset(t)
	pool, err := parallel.New(ds, tree, 0)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	addr := startSemServer(t, serve.Config{Pool: pool, Master: tree})
	ship := fetchWholeShipment(t, addr, ds)
	if ship.Epoch == 0 {
		t.Fatal("static-pool shipment carries no epoch hint")
	}

	oracle, err := client.New(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	c, err := client.New(client.Config{
		Addr: addr, Conns: 1,
		Fallback:       ship,
		SemanticCache:  true,
		SemanticMaxAge: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	center := ds.Extent.Center()
	window := geom.Rect{
		Min: geom.Point{X: center.X - 1200, Y: center.Y - 1200},
		Max: geom.Point{X: center.X + 1200, Y: center.Y + 1200},
	}

	// First covered query goes to the wire: the client has no hint yet. The
	// reply primes freshness.
	before := c.WireStats().Exchanges
	primed, err := c.RangeIDs(window)
	if err != nil {
		t.Fatal(err)
	}
	if c.WireStats().Exchanges != before+1 {
		t.Fatalf("priming query did not go to the wire: exchanges %d -> %d",
			before, c.WireStats().Exchanges)
	}
	if c.Semantic().Hits != 0 {
		t.Fatalf("unprimed client answered locally: %+v", c.Semantic())
	}

	// From here on, covered queries must be local: exchanges frozen, results
	// equal to the uncached server's.
	wired := c.WireStats().Exchanges
	gotRange, err := c.RangeIDs(window)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(gotRange), sortedIDs(primed)) {
		t.Fatalf("local range disagrees with primed wire answer: %d vs %d ids",
			len(gotRange), len(primed))
	}
	recs, err := c.Range(window)
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, err := oracle.Range(window)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(wantRecs) {
		t.Fatalf("local data range: %d records, server %d", len(recs), len(wantRecs))
	}
	ptIDs, err := c.PointIDs(center, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantPt, err := oracle.PointIDs(center, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(ptIDs), sortedIDs(wantPt)) {
		t.Fatalf("local point ids %v, server %v", ptIDs, wantPt)
	}
	nn, err := c.Nearest(center)
	if err != nil {
		t.Fatal(err)
	}
	wantNN, err := oracle.Nearest(center)
	if err != nil {
		t.Fatal(err)
	}
	if nn == nil || wantNN == nil || nn.ID != wantNN.ID {
		t.Fatalf("local nearest %+v, server %+v", nn, wantNN)
	}
	if got := c.WireStats().Exchanges; got != wired {
		t.Fatalf("covered queries touched the wire: exchanges %d -> %d", wired, got)
	}
	sem := c.Semantic()
	if sem.Hits < 4 {
		t.Fatalf("semantic hits = %d, want >= 4", sem.Hits)
	}
	if sem.SavedNICJoules <= 0 {
		t.Fatalf("saved NIC joules = %v, want > 0", sem.SavedNICJoules)
	}

	// Filter mode wants the server's candidate set — never local.
	if _, err := c.FilterRange(window); err != nil {
		t.Fatal(err)
	}
	// Uncovered geometry goes to the wire too.
	if _, err := c.PointIDs(geom.Point{X: ds.Extent.Max.X + 1000, Y: ds.Extent.Max.Y + 1000}, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.WireStats().Exchanges; got != wired+2 {
		t.Fatalf("filter/uncovered queries: exchanges %d -> %d, want +2", wired, got)
	}
	if c.Semantic().Hits != sem.Hits {
		t.Fatal("filter or uncovered query counted as a semantic hit")
	}
}

// TestSemanticCacheRetiresOnWrite drives the invalidation path over a mutable
// pool: a server-side write changes the epoch hint, and once the client's
// bounded-staleness window (SemanticMaxAge) lapses, the next covered query
// revalidates over the wire, observes the mismatch, and local answering stays
// off for good — the fresh answer includes the inserted record.
func TestSemanticCacheRetiresOnWrite(t *testing.T) {
	ds, tree := semanticDataset(t)
	pool, err := mutable.NewFromDataset(ds, 4, mutable.Config{CompactInterval: -1})
	if err != nil {
		t.Fatalf("mutable pool: %v", err)
	}
	t.Cleanup(pool.Close)
	addr := startSemServer(t, serve.Config{Pool: pool, Master: tree})
	ship := fetchWholeShipment(t, addr, ds) // before any write: epoch stamped
	if ship.Epoch == 0 {
		t.Fatal("unwritten mutable-pool shipment carries no epoch hint")
	}

	const maxAge = 250 * time.Millisecond
	c, err := client.New(client.Config{
		Addr: addr, Conns: 1,
		Fallback:       ship,
		SemanticCache:  true,
		SemanticMaxAge: maxAge,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writer, err := client.New(client.Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	center := ds.Extent.Center()
	window := geom.Rect{
		Min: geom.Point{X: center.X - 1500, Y: center.Y - 1500},
		Max: geom.Point{X: center.X + 1500, Y: center.Y + 1500},
	}

	// Prime over the wire, then prove a local hit works while unwritten.
	if _, err := c.RangeIDs(window); err != nil {
		t.Fatal(err)
	}
	wired := c.WireStats().Exchanges
	if _, err := c.RangeIDs(window); err != nil {
		t.Fatal(err)
	}
	if c.WireStats().Exchanges != wired || c.Semantic().Hits == 0 {
		t.Fatalf("pre-write covered query not served locally (exchanges %d -> %d, hits %d)",
			wired, c.WireStats().Exchanges, c.Semantic().Hits)
	}

	// A write lands inside the window; the live hint moves away from the
	// shipment's epoch.
	const newID = 500000
	seg := geom.Segment{
		A: geom.Point{X: center.X - 50, Y: center.Y - 50},
		B: geom.Point{X: center.X + 50, Y: center.Y + 50},
	}
	if _, err := writer.Insert(newID, seg); err != nil {
		t.Fatalf("insert: %v", err)
	}

	// The client may serve bounded-stale answers until its hint ages out;
	// after that every covered query must revalidate over the wire.
	time.Sleep(maxAge + 100*time.Millisecond)
	hits := c.Semantic().Hits
	wired = c.WireStats().Exchanges
	ids, err := c.RangeIDs(window)
	if err != nil {
		t.Fatal(err)
	}
	if c.WireStats().Exchanges != wired+1 {
		t.Fatal("post-write query with an expired hint did not revalidate over the wire")
	}
	found := false
	for _, id := range ids {
		if id == newID {
			found = true
		}
	}
	if !found {
		t.Fatalf("revalidated answer is stale: inserted id %d missing from %d ids", newID, len(ids))
	}

	// The revalidation delivered a fresh hint, but it differs from the
	// shipment's epoch — local answering stays off permanently.
	if _, err := c.RangeIDs(window); err != nil {
		t.Fatal(err)
	}
	if c.WireStats().Exchanges != wired+2 {
		t.Fatal("covered query answered locally from a retired shipment")
	}
	if c.Semantic().Hits != hits {
		t.Fatalf("semantic hits moved %d -> %d after retirement", hits, c.Semantic().Hits)
	}
}

// TestSemanticCacheRequiresEpochFallback pins the constructor contract: the
// semantic cache needs a fallback that can prove its epoch.
func TestSemanticCacheRequiresEpochFallback(t *testing.T) {
	if _, err := client.New(client.Config{Addr: "127.0.0.1:1", SemanticCache: true}); err == nil {
		t.Fatal("SemanticCache without an EpochFallback was accepted")
	}
}

// TestSemanticSavedJoulesPriceSkippedFrames checks that a semantic hit is
// credited with exactly the radio energy of the exchange it skipped: the
// same query sent over the wire moves frames whose NIC price equals the
// hit's saved Joules.
func TestSemanticSavedJoulesPriceSkippedFrames(t *testing.T) {
	ds, tree := semanticDataset(t)
	pool, err := parallel.New(ds, tree, 0)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	addr := startSemServer(t, serve.Config{Pool: pool, Master: tree})
	ship := fetchWholeShipment(t, addr, ds)
	c, err := client.New(client.Config{
		Addr: addr, Conns: 1,
		Fallback:       ship,
		SemanticCache:  true,
		SemanticMaxAge: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const bw = 2e6
	c.SetLink(time.Millisecond, bw)

	center := ds.Extent.Center()
	window := geom.Rect{
		Min: geom.Point{X: center.X - 6000, Y: center.Y - 6000},
		Max: geom.Point{X: center.X + 6000, Y: center.Y + 6000},
	}
	pre := c.WireStats()
	if _, err := c.RangeIDs(window); err != nil { // over the wire: primes the hint
		t.Fatal(err)
	}
	post := c.WireStats()
	saved := c.Semantic().SavedNICJoules
	if _, err := c.RangeIDs(window); err != nil { // the same query, answered locally
		t.Fatal(err)
	}
	if c.WireStats().Exchanges != post.Exchanges || c.Semantic().Hits != 1 {
		t.Fatalf("second query was not a semantic hit: %+v", c.Semantic())
	}
	want := obs.DefaultEnergyModel().NICExchangeJoules(
		int(post.BytesTx-pre.BytesTx), int(post.BytesRx-pre.BytesRx), 1, bw)
	if got := c.Semantic().SavedNICJoules - saved; math.Abs(got-want) > 1e-12 {
		t.Fatalf("semantic hit saved %g J, the skipped exchange costs %g J", got, want)
	}
}
