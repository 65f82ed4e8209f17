// Command perfledger is the repository's same-host performance ledger. It
// deploys the system in-process on loopback TCP, drives one seeded
// open-loop workload through at most two client connections, checks every
// answer against an oracle, and prints the workload's metrics as JSON.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfledger --workload atlas_uniform|hotspot_cluster|moving_fleet \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the separate
// traced run that prints the per-layer metrics. The last line of standard
// output is the result object; the line before it is the full ledger row
// with provenance.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The workloads. Rates, ladders and limits were set from the capacity
// measured on a 2-CPU Intel Xeon host; BENCHMARK.json records them with the
// reasons for each workload.
var specs = []spec{
	{
		name: "atlas_uniform", batch: 1, sampleOne: 8,
		rate: 12000, ladder: []float64{16000, 22000, 30000, 40000}, p99Limit: 10000,
	},
	{
		name: "hotspot_cluster", cluster: true, batch: batchSize, sampleOne: 64,
		rate: 64000, ladder: []float64{96000, 144000, 216000, 324000}, p99Limit: 10000,
	},
	{
		name: "moving_fleet", cluster: true, batch: 1, sampleOne: 8,
		rate: 1000, ladder: []float64{1500, 2250, 3400, 5000}, p99Limit: 10000,
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named value with its unit.
type metric struct {
	name, unit string
	value      float64
}

func (m metric) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{"name": m.name, "value": m.value, "unit": m.unit})
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfledger", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "atlas_uniform | hotspot_cluster | moving_fleet")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var sp *spec
	for i := range specs {
		if specs[i].name == *name {
			s := specs[i]
			sp = &s
		}
	}
	if sp == nil {
		fmt.Fprintf(stderr, "perfledger: unknown workload %q\n", *name)
		return 2
	}
	b := &bench{sp: sp, p: defaultPlan(*seconds), seed: *seed, traced: *trace == 1}
	res, err := b.run()
	b.tearDown()
	if err != nil {
		fmt.Fprintln(stderr, "perfledger:", err)
		return 1
	}
	row := map[string]any{
		"workload":   sp.name,
		"provenance": provenance(b),
		"detail":     res.detail,
	}
	line, err := json.Marshal(row)
	if err != nil {
		// A detail without samples (NaN) must not cost the result line.
		line, _ = json.Marshal(map[string]string{"workload": sp.name, "detail_error": err.Error()})
	}
	fmt.Fprintln(stdout, string(line))
	fmt.Fprintln(stdout, res.json())
	return 0
}

// result is what one run reports.
type result struct {
	attempted, failed int
	mismatch, errors  int
	missed, notOwned  int
	metrics           []metric
	detail            map[string]any
}

func (r *result) json() string {
	m := make(map[string]map[string]any, len(r.metrics))
	for _, x := range r.metrics {
		m[x.name] = map[string]any{"value": orZero(x.value), "unit": x.unit}
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   m,
	}) // maps of strings and float64s always marshal
	return string(out)
}

// count adds a sink's operations to the result.
func (r *result) count(s *sink) {
	r.attempted += s.attempted
	r.failed += s.failed
	r.mismatch += s.mismatch
	r.errors += s.errors
	r.missed += s.missed
	r.notOwned += s.notOwned
}

// totalOps bounds the operations a run issues, for sizing its inputs.
func (b *bench) totalOps() int {
	ops := func(readRate, secs float64) int { return int(b.opsPerSec(readRate)*secs) + clientConns + 1 }
	n := ops(b.sp.rate, b.p.warm)
	if b.traced {
		return n + 2*ops(b.sp.rate, b.p.latencySecs())
	}
	n += ops(b.sp.rate, b.p.latencySecs())
	for _, r := range b.sp.ladder {
		n += ops(r, b.p.ladderSecs()/float64(len(b.sp.ladder)))
	}
	return n
}

func (b *bench) run() (*result, error) {
	t0 := time.Now()
	if err := b.prepare(b.totalOps()); err != nil {
		return nil, err
	}
	prepS := time.Since(t0).Seconds()
	if err := b.setUp(); err != nil {
		return nil, err
	}
	res := &result{detail: map[string]any{"inputs_s": prepS}}
	res.count(b.warmup)
	if b.traced {
		return res, b.tracedRun(res)
	}
	// setup_s is the median of setupReps set-ups: the kept one, half of
	// the others before the measured phases and half after them, so that
	// the median spans the run's host conditions, not one moment of them.
	before := (b.p.setupReps - 1) / 2
	if err := b.moreSetUps(before); err != nil {
		return nil, err
	}
	if err := b.untracedRun(res); err != nil {
		return nil, err
	}
	if err := b.moreSetUps(b.p.setupReps - 1 - before); err != nil {
		return nil, err
	}
	res.metrics = append(res.metrics, metric{"setup_s", "s", median(b.setups)})
	res.detail["setup_s_each"] = b.setups
	return res, nil
}

// untracedRun measures the end-to-end metrics: latency at the fixed rate
// and the capacity ladder.
func (b *bench) untracedRun(res *result) error {
	pre := b.c.WireStats()
	lat, reads, writes := b.windows()
	wire := wireSince(b.c, pre)
	res.count(lat)
	res.detail["latency_backlogged"] = lat.aborted
	type rung struct {
		Rate, P99us, LagP99us float64
		Reads, Failed         int
		Aborted               bool
	}
	var rungs []rung
	for _, r := range b.sp.ladder {
		s := b.phase(r, b.p.ladderSecs()/float64(len(b.sp.ladder)))
		res.count(s)
		rungs = append(rungs, rung{Rate: r, P99us: quantile(s.reads, 0.99), LagP99us: quantile(s.lags, 0.99),
			Reads: len(s.reads), Failed: s.failed, Aborted: s.aborted})
	}
	rates := make([]float64, len(rungs))
	tails := make([]float64, len(rungs))
	for i, g := range rungs {
		rates[i], tails[i] = g.Rate, g.P99us
		switch {
		case g.Failed > 0:
			tails[i] = math.Inf(1)
		case g.Aborted:
			tails[i] = math.Max(tails[i], micros(abortLag))
		}
	}
	slo := sloRate(rates, tails, b.sp.p99Limit)
	// Gated beside setup_s: a modeled count and a size, which repeat across
	// runs on a shared host. The latencies and the SLO rate drift with the
	// host's other tenants by more than any allowed bound, so they are
	// reported beside them, ungated (README.md has the measurements).
	res.metrics = []metric{
		{"nic_mj_per_query", "mJ", wire.nicMilliJoulesPerQuery()},
		{"heap_mb", "MB", b.heapMB},
	}
	ungated := []metric{
		{"read_p50_us", "us", median(reads.P50us)},
		{"read_p99_us", "us", median(reads.P99us)},
		{"slo_qps", "1/s", slo},
	}
	if b.fl != nil { // moving_fleet: the only workload that writes
		ungated = append(ungated,
			metric{"write_p50_us", "us", median(writes.P50us)},
			metric{"write_p99_us", "us", median(writes.P99us)})
		res.detail["write_windows"] = writes
	}
	res.detail["ungated"] = ungated
	res.detail["reads"] = len(lat.reads)
	res.detail["read_windows"] = reads
	res.detail["gen_lag_p99_us"] = quantile(lat.lags, 0.99)
	kinds := map[string][3]float64{}
	for k, name := range [4]string{"point", "range", "nn", "batch"} {
		if xs := lat.kinds[k]; len(xs) > 0 {
			kinds[name] = [3]float64{float64(len(xs)), quantile(xs, 0.5), quantile(xs, 0.99)}
		}
	}
	res.detail["kind_n_p50_p99_us"] = kinds
	res.detail["ladder"] = rungs
	res.detail["failures"] = res.failures()
	res.detail["wire"] = wire.WireStats
	if b.d.cache != nil {
		res.detail["qcache"] = b.d.cache.Stats()
	}
	return nil
}

// sloRate is the offered rate at which the ladder's read tail (the read
// p99, at least abortLag for a rung that built a backlog) crosses limit, interpolated log-linearly between the last rung
// that meets it and the first that does not; a rung with failed
// operations has no tail, and the crossing is put midway. Past the last
// rung it is the last rung; below the first, the first rung scaled by
// limit/tail.
func sloRate(rates, tails []float64, limit float64) float64 {
	for i, t := range tails {
		if t <= limit {
			continue
		}
		if i == 0 {
			if math.IsInf(t, 1) {
				return rates[0] * 0.5
			}
			return rates[0] * limit / t
		}
		lo, hi := rates[i-1], rates[i]
		f := 0.5
		if !math.IsInf(t, 1) {
			f = (math.Log(limit) - math.Log(tails[i-1])) / (math.Log(t) - math.Log(tails[i-1]))
		}
		return lo + f*(hi-lo)
	}
	return rates[len(rates)-1]
}

// latencyWindows is how many consecutive windows the latency phase is cut
// into; the read percentiles reported are the medians of the windows', so a
// single stall of the shared host moves one window, not the result.
const latencyWindows = 10

// windows runs the latency phase as latencyWindows consecutive windows at
// the fixed rate and returns the merged samples with each window's read
// p50 and p99.
func (b *bench) windows() (all *sink, reads, writes windowed) {
	all = &sink{}
	for w := 0; w < latencyWindows; w++ {
		s := b.phase(b.sp.rate, b.p.latencySecs()/latencyWindows)
		reads.add(s.reads)
		writes.add(s.writes)
		all.merge(s)
	}
	return all, reads, writes
}

// windowed holds the sample count, p50 and p99 of each window of a phase.
type windowed struct {
	N            []int
	P50us, P99us []float64
}

func (w *windowed) add(xs []float64) {
	if len(xs) > 0 {
		w.N = append(w.N, len(xs))
		w.P50us = append(w.P50us, quantile(xs, 0.50))
		w.P99us = append(w.P99us, quantile(xs, 0.99))
	}
}

// failures breaks the run's failed operations down by cause.
func (r *result) failures() map[string]int {
	return map[string]int{
		"attempted": r.attempted, "failed": r.failed, "oracle_mismatch": r.mismatch,
		"errors": r.errors, "readback_missed": r.missed, "not_owned": r.notOwned,
	}
}

// tracedRun measures the per-layer metrics: counts and per-kind tails over
// an untraced phase, then the same rate with sampled calls replayed through
// the layers.
func (b *bench) tracedRun(res *result) error {
	preWire := b.c.WireStats()
	preHub := snapshot(b.d)
	preRetries := b.c.Retries()
	var un *sink
	om := sampleWhile(b.d, func() { un = b.phase(b.sp.rate, b.p.latencySecs()) })
	postHub := snapshot(b.d)
	wire := wireSince(b.c, preWire)
	retries := float64(b.c.Retries() - preRetries)
	res.count(un)

	b.replay = true
	tr := b.phase(b.sp.rate, b.p.latencySecs())
	res.count(tr)
	res.detail["latency_backlogged"] = un.aborted || tr.aborted

	qs, ws := b.modeledReads()
	lc, err := modelLocal(b.ds, b.orc.tree, qs, ws)
	if err != nil {
		return err
	}

	st := meanSelfTimes(tr.spans, b.d.router != nil)
	d := func(name string) float64 { return postHub.since(preHub, name) }
	hits, misses := d("qcache_hits_total"), d("qcache_misses_total")
	ratio := func(a, c float64) float64 {
		if c == 0 {
			return 0
		}
		return a / c
	}
	fanC, fanT := postHub.hist("router_fanout")
	fanC0, fanT0 := preHub.hist("router_fanout")
	visited, pruned := d("router_nn_backends_visited_total"), d("router_nn_backends_pruned_total")
	pNN := func(k int) float64 { return orZero(quantile(un.kinds[k], 0.99)) }
	res.metrics = []metric{
		{"rtree.walk_us", "us", st.tree},
		{"rtree.nodes_per_query", "count", lc.nodesPerQuery},
		{"rtree.client_mcycles_per_query", "Mcycles", lc.mcyclesPerQ},
		{"rtree.client_uj_per_query", "uJ", lc.microJoulesPer},
		{"mutable.exec_us", "us", mean(tr.execs)},
		{"mutable.exec_p99_us", "us", orZero(quantile(tr.execs, 0.99))},
		{"mutable.tax_us", "us", st.pool},
		{"mutable.compactions", "count", d("mutable_compactions_total")},
		{"mutable.pending_max", "count", float64(om.pending)},
		{"mutable.staleness_max_s", "s", om.staleS},
		{"qcache.hit_ratio", "ratio", ratio(hits, hits+misses)},
		{"qcache.lookups", "count", hits + misses},
		{"qcache.invalidations", "count", d("qcache_invalidations_total")},
		{"qcache.evictions", "count", d("qcache_evictions_total")},
		{"qcache.store_races", "count", d("qcache_store_races_total")},
		{"serve.exec_us", "us", postHub.histMeanSince(preHub, "serve_exec_seconds", 1e6)},
		{"serve.admit_wait_us", "us", postHub.histMeanSince(preHub, "serve_admit_wait_seconds", 1e6)},
		{"serve.update_us", "us", postHub.histMeanSince(preHub, "serve_update_seconds", 1e6)},
		{"serve.tax_us", "us", st.serve},
		{"serve.overloads", "count", d("serve_overloads_total")},
		{"serve.deadlines", "count", d("serve_deadlines_total")},
		{"proto.bytes_per_query", "bytes", wire.perQuery(wire.BytesTx + wire.BytesRx)},
		{"proto.frames_per_query", "count", wire.perQuery(wire.FramesTx + wire.FramesRx)},
		{"proto.exchanges_per_query", "count", wire.perQuery(wire.Exchanges)},
		{"router.leg_us", "us", postHub.histMeanSince(preHub, "router_leg_seconds", 1e6)},
		{"router.fanout_per_query", "count", ratio(fanT-fanT0, fanC-fanC0)},
		{"router.nn_prune_ratio", "ratio", ratio(pruned, visited+pruned)},
		{"router.write_legs_per_write", "count", ratio(d("router_write_legs_total"), d("router_writes_total"))},
		{"router.tax_us", "us", st.router},
		{"router.refreshes", "count", d("router_refresh_total")},
		{"router.divergent_max", "count", om.divergent},
		{"client.point_p99_us", "us", pNN(0)},
		{"client.range_p99_us", "us", pNN(1)},
		{"client.nn_p99_us", "us", pNN(2)},
		{"client.batch_p99_us", "us", pNN(3)},
		{"client.retries", "count", retries},
		{"client.gen_lag_p99_us", "us", quantile(un.lags, 0.99)},
		{"client.wait_us", "us", st.wait},
		{"trace.read_mean_us", "us", st.total},
		{"trace.self_sum_us", "us", st.wait + st.serve + st.router + st.pool + st.tree},
		{"trace.overhead_us", "us", quantile(tr.reads, 0.5) - quantile(un.reads, 0.5)},
		{"trace.spans", "count", float64(len(tr.spans))},
	}
	res.detail["untraced_read_p50_us"] = quantile(un.reads, 0.5)
	res.detail["traced_read_p50_us"] = quantile(tr.reads, 0.5)
	res.detail["failures"] = res.failures()
	if b.d.cache != nil {
		res.detail["qcache"] = b.d.cache.Stats()
	}
	return nil
}

// orZero maps the quantile of no samples to 0: a read kind the workload
// does not send, or a layer it does not reach.
func orZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// provenance identifies the code, host and inputs of a result, so that
// numbers from different hosts are never compared unknowingly.
func provenance(b *bench) map[string]any {
	commit := os.Getenv("PERFLEDGER_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"commit":      commit,
		"tree_sha256": treeDigest("."),
		"cpu_model":   cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"seed":        b.seed,
		"params": map[string]any{
			"seconds": b.p.seconds, "setup_reps": b.p.setupReps, "warm_s": b.p.warm,
			"rate": b.sp.rate, "ladder": b.sp.ladder, "p99_limit_us": b.sp.p99Limit,
			"batch": b.sp.batch, "sample_one_in": b.sp.sampleOne, "cluster": b.sp.cluster,
			"atlas_pool": b.p.atlasPool, "vehicles": b.p.vehicles,
			"client_conns": clientConns,
		},
	}
}

// treeDigest hashes the Go sources and module files under root, so a result
// names the exact code it measured even outside a git checkout.
func treeDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
