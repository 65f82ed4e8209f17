package main

// trace.go is the traced run's measurement: spans recorded around the
// client call and around replays of the same query into each layer's
// public functions, and counts taken as deltas of the deployment's hubs.

import (
	"math"
	"strings"
	"sync"
	"time"

	"mobispatial/internal/obs"
)

// span is one sampled client call and its layer replays, in µs. A batch's
// replays are summed over its sub-queries; each of its reads took the
// batch's latency, so a batch span stands for every one of them.
type span struct {
	wait   float64 // scheduled wait: due time to send, when the worker was busy
	call   float64 // the client call: send to reply
	router float64 // router.Router, bypassing the front server and cache
	pool   float64 // the owning backend's mutable.Pool
	tree   float64 // a monolithic rtree.Tree over the base dataset
}

// replayLayers times qs through each layer below the client, in turn.
func (b *bench) replayLayers(qs []query, t opTimes, done time.Time, s *sink) span {
	sp := span{wait: micros(t.sent.Sub(t.ref)), call: micros(done.Sub(t.sent))}
	for i := range qs {
		q := &qs[i]
		if b.d.router != nil {
			t0 := time.Now()
			if err := b.d.replayRouter(q, &s.rs); err != nil {
				s.errors++
				s.failed++
			}
			sp.router += micros(time.Since(t0))
		}
		t0 := time.Now()
		b.d.replayPool(q, &s.rs)
		e := micros(time.Since(t0))
		sp.pool += e
		s.execs = append(s.execs, e)
		t0 = time.Now()
		replayTree(b.orc.tree, b.ds, q, &s.rs)
		sp.tree += micros(time.Since(t0))
	}
	return sp
}

// selfTimes splits each span into the self time of every layer. A layer's
// self time is its span minus the part of it the layer below covers; a
// replay longer than its parent (a cache hit skipped the layer) covers the
// whole parent. Self times are therefore non-negative and sum to the span.
type selfTimes struct {
	wait, serve, router, pool, tree, total float64
}

func meanSelfTimes(spans []span, hasRouter bool) selfTimes {
	var st selfTimes
	if len(spans) == 0 {
		return st
	}
	for _, sp := range spans {
		parent := sp.call
		take := func(raw float64) float64 {
			c := math.Min(raw, parent)
			self := parent - c
			parent = c
			return self
		}
		st.wait += sp.wait
		st.total += sp.wait + sp.call
		if hasRouter {
			st.serve += take(sp.router)
			st.router += take(sp.pool)
		} else {
			st.serve += take(sp.pool)
		}
		st.pool += take(sp.tree)
		st.tree += parent
	}
	n := float64(len(spans))
	return selfTimes{st.wait / n, st.serve / n, st.router / n, st.pool / n, st.tree / n, st.total / n}
}

// hubCounts are snapshots of every hub of a deployment, front hub first.
type hubCounts []obs.Snapshot

func snapshot(d *deployment) hubCounts {
	var out hubCounts
	for _, h := range d.hubs() {
		out = append(out, h.Reg.Snapshot())
	}
	return out
}

// counter sums a counter over every hub.
func (h hubCounts) counter(name string) float64 {
	t := 0.0
	for _, s := range h {
		for _, c := range s.Counters {
			if c.Name == name {
				t += float64(c.Value)
			}
		}
	}
	return t
}

// hist sums count and total of the front hub's histograms named base
// (with any labels).
func (h hubCounts) hist(base string) (count, total float64) {
	for _, x := range h[0].Hists {
		if x.Name == base || strings.HasPrefix(x.Name, base+"{") {
			count += float64(x.Count)
			total += float64(x.Count) * x.Mean
		}
	}
	return count, total
}

// histMeanSince is the mean of the samples a front-hub histogram took
// between pre and h, scaled by scale.
func (h hubCounts) histMeanSince(pre hubCounts, base string, scale float64) float64 {
	c1, t1 := h.hist(base)
	c0, t0 := pre.hist(base)
	if c1 <= c0 {
		return 0
	}
	return (t1 - t0) / (c1 - c0) * scale
}

func (h hubCounts) since(pre hubCounts, name string) float64 {
	return h.counter(name) - pre.counter(name)
}

// overlayMax is the largest overlay state seen while sampling.
type overlayMax struct {
	pending   int
	staleS    float64
	divergent float64
}

// sampleWhile runs f while sampling the deployment's overlay and
// divergence gauges every 10ms.
func sampleWhile(d *deployment, f func()) overlayMax {
	var m overlayMax
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			p, s := d.overlayState()
			m.pending = max(m.pending, p)
			m.staleS = math.Max(m.staleS, s)
			m.divergent = math.Max(m.divergent, d.divergentRanges())
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	f()
	close(stop)
	wg.Wait()
	return m
}
