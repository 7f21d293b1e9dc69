package sim

import (
	"testing"

	"dmt/internal/cache"
	"dmt/internal/workload"
)

// small returns a quick test configuration.
func small(env Environment, design Design, thp bool, wl workload.Spec) Config {
	return Config{
		Env: env, Design: design, THP: thp, Workload: wl,
		WSBytes: 96 << 20, Ops: 30_000, Seed: 7, CacheScale: 16,
	}
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNativeDesignMatrix(t *testing.T) {
	wl := workload.GUPS()
	for _, d := range []Design{DesignVanilla, DesignDMT, DesignECPT, DesignFPT, DesignASAP} {
		d := d
		t.Run(string(d), func(t *testing.T) {
			r := run(t, small(EnvNative, d, false, wl))
			if r.TLBMisses == 0 {
				t.Fatal("no TLB misses: trace does not stress translation")
			}
			if r.AvgWalkCycles() <= 0 {
				t.Fatal("no walk cycles recorded")
			}
		})
	}
}

func TestVirtDesignMatrix(t *testing.T) {
	wl := workload.GUPS()
	for _, d := range []Design{DesignVanilla, DesignShadow, DesignDMT, DesignPvDMT, DesignECPT, DesignFPT, DesignAgile, DesignASAP} {
		d := d
		t.Run(string(d), func(t *testing.T) {
			r := run(t, small(EnvVirt, d, false, wl))
			if r.TLBMisses == 0 || r.AvgWalkCycles() <= 0 {
				t.Fatalf("degenerate run: misses=%d avg=%.1f", r.TLBMisses, r.AvgWalkCycles())
			}
		})
	}
}

func TestNestedDesigns(t *testing.T) {
	wl := workload.Canneal()
	for _, d := range []Design{DesignVanilla, DesignPvDMT} {
		r := run(t, small(EnvNested, d, false, wl))
		if r.TLBMisses == 0 || r.AvgWalkCycles() <= 0 {
			t.Fatalf("%s: degenerate nested run", d)
		}
	}
}

func TestSequentialRefCountsMatchTable6(t *testing.T) {
	wl := workload.GUPS()
	cases := []struct {
		env  Environment
		d    Design
		want float64
		tol  float64
	}{
		{EnvNative, DesignDMT, 1, 0.05},
		{EnvNative, DesignECPT, 1, 0.01},
		{EnvNative, DesignFPT, 2, 0.01},
		{EnvVirt, DesignDMT, 3, 0.1},
		{EnvVirt, DesignPvDMT, 2, 0.05},
		{EnvVirt, DesignECPT, 3, 0.01},
		{EnvVirt, DesignFPT, 8, 0.01},
		{EnvNested, DesignPvDMT, 3, 0.05},
	}
	for _, c := range cases {
		r := run(t, small(c.env, c.d, false, wl))
		if got := r.AvgSeqRefs(); got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("%v/%v: avg sequential refs %.3f, want %.1f (Table 6)", c.env, c.d, got, c.want)
		}
	}
}

func TestDMTCoverageHigh(t *testing.T) {
	for _, wl := range []workload.Spec{workload.GUPS(), workload.Redis(), workload.Memcached()} {
		r := run(t, small(EnvNative, DesignDMT, false, wl))
		if r.Coverage < 0.99 {
			t.Errorf("%s: DMT coverage %.4f < 0.99 (§6.1)", wl.Name, r.Coverage)
		}
	}
}

func TestPvDMTBeatsBaselineWalkLatency(t *testing.T) {
	wl := workload.GUPS()
	base := run(t, small(EnvVirt, DesignVanilla, false, wl))
	pv := run(t, small(EnvVirt, DesignPvDMT, false, wl))
	if pv.AvgWalkCycles() >= base.AvgWalkCycles() {
		t.Fatalf("pvDMT avg walk %.1f not faster than nested paging %.1f",
			pv.AvgWalkCycles(), base.AvgWalkCycles())
	}
	speedup := base.AvgWalkCycles() / pv.AvgWalkCycles()
	if speedup < 1.1 {
		t.Fatalf("pvDMT walk speedup %.2fx implausibly low", speedup)
	}
}

func TestNativeDMTBeatsVanilla(t *testing.T) {
	wl := workload.GUPS()
	base := run(t, small(EnvNative, DesignVanilla, false, wl))
	d := run(t, small(EnvNative, DesignDMT, false, wl))
	if d.AvgWalkCycles() >= base.AvgWalkCycles() {
		t.Fatalf("DMT avg walk %.1f not faster than radix %.1f", d.AvgWalkCycles(), base.AvgWalkCycles())
	}
}

func TestDeterminism(t *testing.T) {
	cfg := small(EnvVirt, DesignPvDMT, false, workload.GUPS())
	a := run(t, cfg)
	b := run(t, cfg)
	if a.WalkCycles != b.WalkCycles || a.TLBMisses != b.TLBMisses || a.DataCycles != b.DataCycles {
		t.Fatal("identical configs produced different measurements")
	}
}

func TestBreakdownStepsForNestedWalk(t *testing.T) {
	r := run(t, small(EnvVirt, DesignVanilla, false, workload.GUPS()))
	bd := r.Breakdown()
	if len(bd) == 0 {
		t.Fatal("no breakdown recorded")
	}
	// The 24 architectural steps must appear (possibly with low counts
	// for PWC-skipped ones, but the leaf steps must dominate).
	labels := map[string]bool{}
	for _, s := range bd {
		labels[s.Label] = true
	}
	for _, must := range []string{"05 gL4", "20 gL1", "24 hL1"} {
		if !labels[must] {
			t.Errorf("breakdown missing step %q; have %v", must, labels)
		}
	}
}

func TestTHPRunsAndReducesMisses(t *testing.T) {
	wl := workload.GUPS()
	base := run(t, small(EnvNative, DesignVanilla, false, wl))
	thp := run(t, small(EnvNative, DesignVanilla, true, wl))
	if thp.MissRatio() >= base.MissRatio() {
		t.Fatalf("THP miss ratio %.4f not below 4K %.4f", thp.MissRatio(), base.MissRatio())
	}
}

func TestShadowCheaperWalkButExits(t *testing.T) {
	wl := workload.GUPS()
	sh := run(t, small(EnvVirt, DesignShadow, false, wl))
	nested := run(t, small(EnvVirt, DesignVanilla, false, wl))
	if sh.AvgSeqRefs() >= nested.AvgSeqRefs() {
		t.Fatalf("shadow refs %.1f not below nested %.1f", sh.AvgSeqRefs(), nested.AvgSeqRefs())
	}
	if sh.ShadowSyncs == 0 {
		t.Fatal("shadow paging recorded no sync work")
	}
}

func TestAblationKnobs(t *testing.T) {
	wl := workload.Redis()
	// One register covers only the largest mapping: coverage must drop
	// far below the default-16 run.
	cfg := small(EnvNative, DesignDMT, false, wl)
	cfg.TEARegisters = 1
	cfg.TEAMergeThreshold = -1
	one := run(t, cfg)
	cfg16 := small(EnvNative, DesignDMT, false, wl)
	full := run(t, cfg16)
	if one.Coverage >= 0.5 || full.Coverage < 0.99 {
		t.Fatalf("register knob ineffective: 1-reg coverage %.2f, 16-reg %.2f", one.Coverage, full.Coverage)
	}
	// Fragmentation forces splits and costs coverage.
	fcfg := small(EnvNative, DesignDMT, false, workload.GUPS())
	fcfg.FragmentTarget = 0.99
	frag := run(t, fcfg)
	if frag.Coverage >= 0.9 {
		t.Fatalf("fragmentation knob ineffective: coverage %.2f", frag.Coverage)
	}
}

// TestCheckCacheScaleMatchesBuild pins the front ends' up-front scale check
// to the build it stands in for: CheckCacheScale accepts a scale exactly
// when the scaled hierarchy can be built, which with the Table 3 geometry
// means a power of two up to 64 (0 selects the default).
func TestCheckCacheScaleMatchesBuild(t *testing.T) {
	if err := CheckCacheScale(0); err != nil {
		t.Fatalf("default scale rejected: %v", err)
	}
	if CheckCacheScale(-1) == nil {
		t.Fatal("negative scale accepted")
	}
	for scale := 1; scale <= 300; scale++ {
		_, buildErr := cache.NewHierarchy(cache.ScaledConfig(scale))
		checkErr := CheckCacheScale(scale)
		if (buildErr == nil) != (checkErr == nil) {
			t.Fatalf("scale %d: build error %v, check error %v", scale, buildErr, checkErr)
		}
		if want := scale <= 64 && scale&(scale-1) == 0; (checkErr == nil) != want {
			t.Fatalf("scale %d: check error %v, want accepted=%v", scale, checkErr, want)
		}
	}
}

// TestCheckWSBoundary pins where CheckWS draws the line, and that the cap
// keeps its stated margin over every workload's default working set.
func TestCheckWSBoundary(t *testing.T) {
	for mib, ok := range map[int]bool{0: true, 1: true, maxWSMiB: true, maxWSMiB + 1: false, 65536: false, 1 << 44: false, -1: false} {
		if err := CheckWS(mib); (err == nil) != ok {
			t.Errorf("CheckWS(%d) = %v, want accepted=%v", mib, err, ok)
		}
	}
	for _, wl := range workload.All() {
		if 10*wl.DefaultWS > maxWSMiB<<20 {
			t.Errorf("%s: 10× its %d-byte default exceeds the %d MiB cap", wl.Name, wl.DefaultWS, maxWSMiB)
		}
	}
}

// TestCheckShardsBoundary pins where CheckShards draws the line: a shard per
// trace op is the most it admits, counting both after defaults.
func TestCheckShardsBoundary(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{Ops: 100, Shards: 100}, true},
		{Config{Ops: 100, Shards: 101}, false},
		{Config{Shards: 200_000}, true},
		{Config{Shards: 200_001}, false},
		{Config{Ops: 8, Workers: 8}, true},
		{Config{Ops: 3, Workers: 4}, false},
		{Config{Ops: 3, Workers: 4, Shards: 2}, true},
	}
	for _, c := range cases {
		if err := CheckShards(c.cfg); (err == nil) != c.ok {
			t.Errorf("CheckShards(ops=%d shards=%d workers=%d) = %v, want accepted=%v",
				c.cfg.Ops, c.cfg.Shards, c.cfg.Workers, err, c.ok)
		}
	}
}
