package main

// bench.go runs one workload: inputs and oracle first, then set-up, then
// the timed phases.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"mobispatial/internal/dataset"
	"mobispatial/internal/proto"
	"mobispatial/internal/serve/client"
)

// spec is one workload's fixed parameters. Rates count reads per second
// (moving_fleet: vehicle steps, each one move, one read and one read-back).
type spec struct {
	name      string
	cluster   bool
	batch     int       // reads per client call
	rate      float64   // fixed offered rate of the latency phase
	ladder    []float64 // rates of the capacity ladder, ascending
	p99Limit  float64   // read p99 limit of the ladder, µs
	sampleOne int       // traced run: one call in sampleOne is replayed
}

// plan is how a run spends its time.
type plan struct {
	seconds   float64 // the measured time, --seconds
	setupReps int     // set-ups per run; setup_s is their median
	warm      float64 // seconds at the fixed rate before measuring
	atlasPool int     // distinct atlas_uniform queries, cycled
	vehicles  int     // moving_fleet vehicles
}

func defaultPlan(seconds float64) plan {
	return plan{seconds: seconds, setupReps: 9, warm: 1, atlasPool: 64000, vehicles: 256}
}

// Phase shares of the measured time.
func (p plan) latencySecs() float64 { return 0.6 * p.seconds }
func (p plan) ladderSecs() float64  { return 0.4 * p.seconds }

// bench is one run of one workload.
type bench struct {
	sp    *spec
	p     plan
	seed  int64
	ds    *dataset.Dataset // the benchmark's own copy, for inputs and oracle
	orc   *oracle
	pool  []query // atlas_uniform: cycled; hotspot_cluster: the hot set
	wants []want  // wants[i] answers pool[i] (fleet: fl.reads[i])
	seq   []int32 // hotspot_cluster: pool index of every read
	fl    *fleet  // moving_fleet vehicles

	d *deployment
	c *client.Client

	setups []float64 // seconds per set-up
	heapMB float64

	traced bool  // the traced run: per-layer metrics
	replay bool  // replay sampled calls through the layers
	next   int   // next global operation index
	warmup *sink // the warm-up phase's samples
}

// opsPerSec converts a read rate to the operation rate the generator runs.
func (b *bench) opsPerSec(readRate float64) float64 { return readRate / float64(b.sp.batch) }

// prepare makes the inputs and the oracle. totalOps bounds the operations
// every phase of the run issues together.
func (b *bench) prepare(totalOps int) error {
	b.ds = dataset.PA()
	var err error
	if b.orc, err = newOracle(b.ds); err != nil {
		return err
	}
	switch b.sp.name {
	case "atlas_uniform":
		b.pool = atlasPool(b.ds, b.p.atlasPool, b.seed)
		b.wants = b.orc.answers(b.pool)
	case "hotspot_cluster":
		b.pool = hotPool(b.ds, b.seed)
		b.wants = b.orc.answers(b.pool)
		b.seq = hotSequence(totalOps*b.sp.batch, b.seed)
	case "moving_fleet":
		steps := (totalOps + b.p.vehicles - 1) / b.p.vehicles
		if b.fl, err = makeFleet(b.ds, b.p.vehicles, steps, b.seed); err != nil {
			return err
		}
		b.wants = b.orc.answers(b.fl.reads)
	default:
		return fmt.Errorf("unknown workload %q", b.sp.name)
	}
	return nil
}

// modeledReads returns the first reads of the run's read sequence, at most
// modeledQueries, with their answers.
func (b *bench) modeledReads() ([]query, []want) {
	switch {
	case b.seq != nil:
		n := min(modeledQueries, len(b.seq))
		qs := make([]query, 0, n)
		ws := make([]want, 0, n)
		for _, ix := range b.seq[:n] {
			qs = append(qs, b.pool[ix])
			ws = append(ws, b.wants[ix])
		}
		return qs, ws
	case b.fl != nil:
		n := min(modeledQueries, len(b.fl.reads))
		return b.fl.reads[:n], b.wants[:n]
	default:
		n := min(modeledQueries, len(b.pool))
		return b.pool[:n], b.wants[:n]
	}
}

// setUp deploys the system, places the vehicles and warms it up; the run
// keeps this deployment. heapMB is the live heap it adds, measured after
// the warm-up and before any other set-up, whose torn-down deployments can
// stay reachable from pending timers for a moment.
func (b *bench) setUp() error {
	heap0 := liveHeap()
	var err error
	if b.d, b.c, err = b.deploy(); err != nil {
		return err
	}
	if b.fl != nil {
		if err := b.place(); err != nil {
			return err
		}
	}
	b.warmup = b.phase(b.sp.rate, b.p.warm)
	b.heapMB = (float64(steadyHeap()) - float64(heap0)) / (1 << 20)
	return nil
}

// moreSetUps times n further set-ups, each torn down at once, while the
// kept deployment idles. Each starts from a collected heap, so that one
// set-up does not pay for the garbage of the one before it.
func (b *bench) moreSetUps(n int) error {
	for r := 0; r < n; r++ {
		runtime.GC()
		d, c, err := b.deploy()
		if err != nil {
			return err
		}
		c.Close()
		d.close()
	}
	return nil
}

// deploy builds one deployment and its client and records the set-up
// time: dataset generation to the first answered query.
func (b *bench) deploy() (*deployment, *client.Client, error) {
	t0 := time.Now()
	ds := dataset.PA()
	var d *deployment
	var err error
	if b.sp.cluster {
		d, err = buildCluster(ds)
	} else {
		d, err = buildSingle(ds)
	}
	if err != nil {
		return nil, nil, err
	}
	c, err := d.dial()
	if err != nil {
		d.close()
		return nil, nil, err
	}
	recs, err := c.KNearest(ds.Extent.Center(), 1)
	el := time.Since(t0)
	if err == nil && len(recs) != 1 {
		err = fmt.Errorf("answered %d records, want 1", len(recs))
	}
	if err != nil {
		c.Close()
		d.close()
		return nil, nil, fmt.Errorf("first query: %w", err)
	}
	b.setups = append(b.setups, el.Seconds())
	return d, c, nil
}

// place inserts every vehicle at its first position; untimed.
func (b *bench) place() error {
	for v := range b.fl.segs {
		if _, err := b.c.Insert(b.fl.base+uint32(v), b.fl.segs[v][0]); err != nil {
			return fmt.Errorf("placing vehicle %d: %w", v, err)
		}
	}
	return nil
}

func (b *bench) tearDown() {
	if b.c != nil {
		b.c.Close()
	}
	if b.d != nil {
		b.d.close()
	}
}

// steadyHeap is the least live heap of a few samples 100ms apart: a
// compaction rebuilding a shard holds its old and new base at once for a
// moment, and one sample taken then reads a shard's worth too high.
func steadyHeap() uint64 {
	h := liveHeap()
	for i := 0; i < 4; i++ {
		time.Sleep(100 * time.Millisecond)
		h = min(h, liveHeap())
	}
	return h
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// phase runs the workload's operation at readRate for secs seconds.
func (b *bench) phase(readRate, secs float64) *sink {
	rate := b.opsPerSec(readRate)
	n := int(math.Round(rate * secs))
	if n < clientConns {
		n = clientConns
	}
	base := b.next
	b.next += n
	op := b.atlasOp
	switch {
	case b.seq != nil:
		op = b.hotOp
	case b.fl != nil:
		op = b.fleetOp
	}
	return drive(rate, n, clientConns, func(i int, t opTimes, s *sink) { op(base+i, t, s) })
}

func (b *bench) atlasOp(i int, t opTimes, s *sink) {
	k := i % len(b.pool)
	b.read(&b.pool[k], &b.wants[k], i, t, s)
}

// fleetOp runs step i: the move and its read-back, then the read. The read
// is due when the move's read-back returns, plus the step's backlog: the
// time the step itself waited behind the worker's earlier steps, so a slow
// move or compaction fold that delays later steps counts in their reads.
func (b *bench) fleetOp(i int, t opTimes, s *sink) {
	b.move(i, t, s)
	now := time.Now()
	b.read(&b.fl.reads[i], &b.wants[i], i, opTimes{ref: now.Add(-t.sent.Sub(t.ref)), sent: now}, s)
}

// move steps vehicle i % V along its route through the front server and
// reads its fresh position back: the acked move must be visible.
func (b *bench) move(i int, t opTimes, s *sink) {
	id := b.fl.base + uint32(b.fl.vehicle(i))
	seg := b.fl.pos(i)
	ack, err := b.c.Move(id, seg)
	done := time.Now()
	s.attempted++
	switch {
	case err != nil:
		s.errors++
		s.failed++
		return
	case !ack.Owned:
		s.notOwned++
		s.failed++
	}
	s.writes = append(s.writes, micros(done.Sub(t.ref)))
	ids, err := b.c.RangeIDs(seg.MBR())
	s.attempted++
	if err != nil {
		s.errors++
		s.failed++
		return
	}
	for _, got := range ids {
		if got == id {
			return
		}
	}
	s.missed++
	s.failed++
}

// read sends one single query, checks it and records its latency.
func (b *bench) read(q *query, w *want, i int, t opTimes, s *sink) {
	var ids []uint32
	var recs []proto.Record
	var err error
	switch q.kind {
	case proto.KindPoint:
		ids, err = b.c.PointIDs(q.pt, 0)
	case proto.KindRange:
		ids, err = b.c.RangeIDs(q.win)
	default:
		recs, err = b.c.KNearest(q.pt, q.k)
	}
	done := time.Now()
	s.attempted++
	if err != nil {
		s.errors++
		s.failed++
		return
	}
	ok := false
	static := uint32(b.ds.Len())
	if q.kind == proto.KindNN {
		dists := make([]float64, len(recs))
		base := make([]bool, len(recs))
		for j, r := range recs {
			dists[j] = r.Seg.DistToPoint(q.pt)
			base[j] = r.ID < static
		}
		ok = w.matchNN(dists, base, b.fl != nil)
	} else {
		ok = w.matchIDs(ids, static)
	}
	if !ok {
		s.mismatch++
		s.failed++
		fmt.Fprintf(os.Stderr, "perfledger: op %d: %s answer differs from the oracle: %+v\n", i, kindName[q.kind], *q)
	}
	lat := micros(done.Sub(t.ref))
	s.reads = append(s.reads, lat)
	s.kinds[q.kind] = append(s.kinds[q.kind], lat)
	if b.replay && i%b.sp.sampleOne == 0 {
		s.spans = append(s.spans, b.replayLayers([]query{*q}, t, done, s))
	}
}

// hotOp sends one batch of the hot sequence.
func (b *bench) hotOp(i int, t opTimes, s *sink) {
	ixs := b.seq[i*b.sp.batch : (i+1)*b.sp.batch]
	qs := make([]proto.QueryMsg, len(ixs))
	for j, ix := range ixs {
		qs[j] = b.pool[ix].msg()
	}
	res, err := b.c.QueryBatch(qs)
	done := time.Now()
	s.attempted += len(ixs)
	if err != nil {
		s.errors += len(ixs)
		s.failed += len(ixs)
		return
	}
	lat := micros(done.Sub(t.ref))
	for j, ix := range ixs {
		q, w := &b.pool[ix], &b.wants[ix]
		ok := false
		switch {
		case res[j].Err != nil:
			s.errors++
		case q.kind == proto.KindNN:
			dists := make([]float64, len(res[j].IDs))
			base := make([]bool, len(res[j].IDs))
			for k, id := range res[j].IDs {
				dists[k] = b.ds.Seg(id).DistToPoint(q.pt)
				base[k] = true
			}
			ok = w.matchNN(dists, base, false)
			if !ok {
				s.mismatch++
			}
		default:
			ok = w.matchIDs(res[j].IDs, uint32(b.ds.Len()))
			if !ok {
				s.mismatch++
			}
		}
		if !ok {
			s.failed++
		}
		s.reads = append(s.reads, lat)
	}
	s.kinds[3] = append(s.kinds[3], lat)
	if b.replay && i%b.sp.sampleOne == 0 {
		qsub := make([]query, len(ixs))
		for j, ix := range ixs {
			qsub[j] = b.pool[ix]
		}
		s.spans = append(s.spans, b.replayLayers(qsub, t, done, s))
	}
}
