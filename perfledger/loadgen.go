package main

// loadgen.go is the open-loop load generator. Operation i of a phase is due
// at start + i/rate. Worker w of W sends operations w, w+W, w+2W, ... over
// the shared client, so each worker is one user with at most one request
// outstanding and the client holds at most W connections.

import (
	"math"
	"sort"
	"sync"
	"time"
)

// opTimes is what the generator hands an operation: ref is the instant its
// latency is measured from and sent the instant it was sent. When the
// worker was still busy at the due time, ref is the due time, so queueing
// behind a slow reply counts as latency (no coordinated omission). When the
// worker was idle, ref is the send instant: the generator's own timer
// overshoot is lag, reported apart, not latency.
type opTimes struct {
	ref, sent time.Time
}

// sink collects one worker's samples; merged after the phase.
type sink struct {
	reads     []float64    // µs per answered read (each sub-query of a batch)
	kinds     [4][]float64 // µs per point, range, nn read and per batch
	writes    []float64    // µs per acked write
	lags      []float64    // µs the send trailed the due time
	attempted int
	failed    int
	mismatch  int // answers that differ from the oracle
	errors    int // operations that returned an error
	missed    int // read-backs that missed an acked move
	notOwned  int // acks with Owned=false
	aborted   bool
	spans     []span    // traced run only
	execs     []float64 // traced run: µs per replayed executor call
	rs        replayScratch
}

func (s *sink) merge(o *sink) {
	s.reads = append(s.reads, o.reads...)
	for k := range s.kinds {
		s.kinds[k] = append(s.kinds[k], o.kinds[k]...)
	}
	s.writes = append(s.writes, o.writes...)
	s.lags = append(s.lags, o.lags...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.mismatch += o.mismatch
	s.errors += o.errors
	s.missed += o.missed
	s.notOwned += o.notOwned
	s.aborted = s.aborted || o.aborted
	s.spans = append(s.spans, o.spans...)
	s.execs = append(s.execs, o.execs...)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// abortLag ends a phase whose backlog has grown past any latency limit:
// the offered rate is beyond what the system sustains.
const abortLag = 250 * time.Millisecond

// drive runs n operations at the offered rate (operations per second) over
// workers workers and returns the merged samples. op performs operation i
// and records into its worker's sink.
func drive(rate float64, n, workers int, op func(i int, t opTimes, s *sink)) *sink {
	start := time.Now().Add(2 * time.Millisecond)
	sinks := make([]*sink, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		s := &sink{}
		sinks[w] = s
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			busyUntil := start
			for i := w; i < n; i += workers {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				lag := sent.Sub(due)
				s.lags = append(s.lags, micros(lag))
				if lag > abortLag {
					s.aborted = true
					return
				}
				ref := sent
				if busyUntil.After(due) {
					ref = due
				}
				op(i, opTimes{ref: ref, sent: sent}, s)
				busyUntil = time.Now()
			}
		}(w)
	}
	wg.Wait()
	out := &sink{}
	for _, s := range sinks {
		out.merge(s)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (sorting xs in place); NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
