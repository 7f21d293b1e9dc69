package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"dmt/internal/sim"
)

// TestReplayMatchesEngine checks the layer replay harness against the
// engine: replaying a config's VA stream through a standalone TLB must
// reproduce the engine's TLB hit and miss counts exactly, for every config
// of both walk workloads.
func TestReplayMatchesEngine(t *testing.T) {
	for _, w := range []walkWorkload{gupsMiss, btreeHit} {
		for _, c := range w.configs {
			cfg := w.config(c, slotSeed(7, 0), 20_000)
			p, err := sim.NewPrototype(cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", w.name, c, err)
			}
			js, err := runJob(p, cfg, nil, -1, 0)
			if err != nil {
				t.Fatalf("%s %v: %v", w.name, c, err)
			}
			lc, _, err := replayConfig(cfg, nil, -1, 0)
			if err != nil {
				t.Fatalf("%s %v replay: %v", w.name, c, err)
			}
			got := [3]uint64{lc.l1Hits, lc.l2Hits, lc.tlbMisses}
			want := [3]uint64{js.res.Counters["tlb.l1_hits"], js.res.Counters["tlb.l2_hits"], js.res.Counters["tlb.misses"]}
			if got != want {
				t.Errorf("%s %v: replayed TLB (l1 hits, l2 hits, misses) = %v, engine %v", w.name, c, got, want)
			}
			if uint64(lc.misses) != js.res.TLBMisses {
				t.Errorf("%s %v: replay walked %d misses, engine %d", w.name, c, lc.misses, js.res.TLBMisses)
			}
		}
	}
}

// TestWorkloadSeparation runs every workload's traced path briefly and
// checks that the workloads split the layers as BENCHMARK.json claims:
// the page-table share of host time is larger on virt_gups_miss than on
// btree_thp_hit, the TLB-plus-cache share is larger on btree_thp_hit, and
// the kernel share is largest on aging_churn.
func TestWorkloadSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	share := map[string]map[string]float64{}
	for name, fn := range workloads {
		sim.ResetBuildCache()
		rep, err := fn(options{seed: 11, duration: 4 * time.Second, trace: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, rep.failed, rep.attempted, rep.lines)
		}
		share[name] = map[string]float64{}
		for _, m := range rep.metrics {
			share[name][m.Name] = m.Value
		}
		t.Logf("%s: pagetable %.1f%%, tlb+cache %.1f%%, kernel %.1f%%", name,
			share[name]["share.pagetable_pct"], share[name]["share.tlb_cache_pct"], share[name]["share.kernel_pct"])
	}
	if g, b := share["virt_gups_miss"]["share.pagetable_pct"], share["btree_thp_hit"]["share.pagetable_pct"]; g <= b {
		t.Errorf("page-table share: virt_gups_miss %.1f%% <= btree_thp_hit %.1f%%", g, b)
	}
	if g, b := share["virt_gups_miss"]["share.tlb_cache_pct"], share["btree_thp_hit"]["share.tlb_cache_pct"]; b <= g {
		t.Errorf("TLB+cache share: btree_thp_hit %.1f%% <= virt_gups_miss %.1f%%", b, g)
	}
	aging := share["aging_churn"]["share.kernel_pct"]
	for name, s := range share {
		if name != "aging_churn" && s["share.kernel_pct"] >= aging {
			t.Errorf("kernel share: %s %.1f%% >= aging_churn %.1f%%", name, s["share.kernel_pct"], aging)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(n=4) (exclusive).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with the
// benchmark's declaration at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i] != (metricDef{w.Name, w.Unit}) {
				t.Errorf("%s[%d] = %v, BENCHMARK.json has %s %s", kind, i, got[i], w.Name, w.Unit)
			}
		}
	}
	check("end_to_end", endToEnd, decl.EndToEnd)
	check("per_layer", perLayer, decl.PerLayer)
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !reflect.DeepEqual(got, names) {
		t.Errorf("workloads = %v, BENCHMARK.json has %v", got, names)
	}
}
