package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile is the metric contract the ledger must emit.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// tinyPlan shrinks a run to well under a second of load.
func tinyPlan() plan {
	return plan{seconds: 0.6, setupReps: 2, warm: 0.1, atlasPool: 512, vehicles: 16}
}

// tinySpec slows a workload's rates so the self-test stays cheap.
func tinySpec(sp spec) *spec {
	sp.rate /= 8
	sp.ladder = []float64{sp.rate, 2 * sp.rate}
	return &sp
}

func runTiny(t *testing.T, sp spec, seed int64, traced bool) map[string]metric {
	t.Helper()
	b := &bench{sp: tinySpec(sp), p: tinyPlan(), seed: seed, traced: traced}
	res, err := b.run()
	b.tearDown()
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", sp.name, seed, traced, err)
	}
	if res.attempted == 0 || res.failed != 0 {
		t.Fatalf("%s seed %d traced=%v: %d of %d operations failed: %v",
			sp.name, seed, traced, res.failed, res.attempted, res.failures())
	}
	out := make(map[string]metric, len(res.metrics))
	for _, m := range res.metrics {
		out[m.name] = m
	}
	return out
}

// TestTinyLedger runs every workload, untraced and traced, on two seeds:
// every metric BENCHMARK.json names is emitted with its unit, the oracle
// passes, and the modeled counts repeat exactly for a fixed seed.
func TestTinyLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys the system three times per workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(got map[string]metric, want []struct{ Name, Unit string }, what string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", what, len(got), len(want))
		}
		for _, w := range want {
			m, ok := got[w.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s not emitted", what, w.Name)
			case m.unit != w.Unit:
				t.Errorf("%s: metric %s has unit %q, want %q", what, w.Name, m.unit, w.Unit)
			case m.value != m.value:
				t.Errorf("%s: metric %s is NaN", what, w.Name)
			}
		}
	}
	exact := []string{"rtree.nodes_per_query", "rtree.client_uj_per_query", "rtree.client_mcycles_per_query", "proto.bytes_per_query"}
	for _, seed := range []int64{3, 4} {
		for _, sp := range specs {
			e2e := runTiny(t, sp, seed, false)
			check(e2e, bf.EndToEnd, sp.name+" untraced")
			layer := runTiny(t, sp, seed, true)
			check(layer, bf.PerLayer, sp.name+" traced")
			if sp.name == "moving_fleet" {
				continue
			}
			again := runTiny(t, sp, seed, true)
			for _, name := range exact {
				if layer[name].value != again[name].value {
					t.Errorf("%s seed %d: %s = %v, then %v", sp.name, seed, name, layer[name].value, again[name].value)
				}
			}
			if e2 := runTiny(t, sp, seed, false); e2["nic_mj_per_query"].value != e2e["nic_mj_per_query"].value {
				t.Errorf("%s seed %d: nic_mj_per_query = %v, then %v", sp.name, seed,
					e2e["nic_mj_per_query"].value, e2["nic_mj_per_query"].value)
			}
		}
	}
}

func TestSLORate(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		tails []float64
		want  float64
	}{
		{[]float64{1, 2, 4, 8}, 40},       // every rung meets the limit
		{[]float64{1, 1, 100, 100}, 25},   // log-linear crossing at 10
		{[]float64{1, inf, 100, 100}, 15}, // failed rung: midway
		{[]float64{20, 40, 80, 160}, 5},   // first rung scaled by limit/tail
	}
	for _, c := range cases {
		if got := sloRate([]float64{10, 20, 30, 40}, c.tails, 10); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("sloRate(%v) = %v, want %v", c.tails, got, c.want)
		}
	}
}

// TestMixClassesExact checks the stratified mix: every full block of the
// atlas pool holds the mix's exact counts, whatever the seed.
func TestMixClassesExact(t *testing.T) {
	want := map[class]int{}
	for _, x := range mixShares(wideShare) {
		want[x.c] = int(math.Round(x.share * atlasBlock))
	}
	for _, seed := range []int64{1, 2} {
		cs := mixClasses(rand.New(rand.NewSource(seed)), 10*atlasBlock, atlasBlock, wideShare)
		for b := 0; b < len(cs); b += atlasBlock {
			got := map[class]int{}
			for _, c := range cs[b : b+atlasBlock] {
				got[c]++
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d block %d: counts %v, want %v", seed, b/atlasBlock, got, want)
			}
		}
	}
}
