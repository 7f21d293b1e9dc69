package main

import (
	"fmt"
	"runtime"
	"time"

	"dmt/internal/mem"
	"dmt/internal/sim"
	"dmt/internal/workload"
)

// walkConfig is one (environment, design) cell of a walk workload.
type walkConfig struct {
	env    sim.Environment
	design sim.Design
}

func (c walkConfig) String() string { return fmt.Sprintf("%v/%s", c.env, c.design) }

// walkWorkload runs its configs back to back, each as one serial shard
// with the simulated TLB and caches starting empty, as dmtsim does.
type walkWorkload struct {
	name    string
	spec    func() workload.Spec
	thp     bool
	ops     int // trace ops per job
	configs []walkConfig
	// setupRepeats is how many times set-up builds every prototype;
	// setup_s is the median.
	setupRepeats int
}

// gupsMiss is miss-bound: uniformly random 4K references over 1.3 GiB miss
// the scaled TLB on 99.97% of ops, so host time goes to the 2D functional
// walk, the cache hierarchy and the TLB probe.
var gupsMiss = walkWorkload{
	name: "virt_gups_miss", spec: workload.GUPS, thp: false, ops: 50_000, setupRepeats: 5,
	configs: []walkConfig{
		{sim.EnvVirt, sim.DesignVanilla}, {sim.EnvVirt, sim.DesignPvDMT}, {sim.EnvNested, sim.DesignPvDMT},
	},
}

// btreeHit is hit-bound: root-to-leaf traversals over THP-backed nodes miss
// the TLB on about 7% of ops, so host time goes to the data-side cache
// accesses and the TLB hit path, not the walk.
var btreeHit = walkWorkload{
	name: "btree_thp_hit", spec: workload.BTree, thp: true, ops: 200_000, setupRepeats: 15,
	configs: []walkConfig{
		{sim.EnvNative, sim.DesignVanilla}, {sim.EnvNative, sim.DesignDMT}, {sim.EnvVirt, sim.DesignPvDMT},
	},
}

const (
	// seedSlots is how many trace seeds a run cycles through: every job
	// reuses one, so each config's repeats must reproduce its first output.
	seedSlots = 4
	// verifyOps is the length of the oracle-armed prefix run per config.
	verifyOps = 5_000
)

func (w walkWorkload) config(c walkConfig, seed int64, ops int) sim.Config {
	return sim.Config{
		Env: c.env, Design: c.design, THP: w.thp, Workload: w.spec(),
		Ops: ops, Seed: seed, CacheScale: 16,
	}
}

// slotSeed is the trace seed of one seed slot.
func slotSeed(seed int64, slot int) int64 { return splitmix(seed, 100+slot) }

// jobStat is one completed job.
type jobStat struct {
	cfg           int
	ops           int
	misses        uint64
	clone, step   time.Duration // step includes Finish
	finish, total time.Duration
	res           *sim.Result
}

// walkPhase is the outcome of one measured phase.
type walkPhase struct {
	rates []float64 // per round: trace ops per second of stepping
	lats  []float64 // per job: clone + step + finish, ms
	jobs  []jobStat
}

func (w walkWorkload) run(o options) (*report, error) {
	rep := &report{}
	chk, err := newChecker(w.name, o)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up: cold builds of every config, repeated; the last set is used.
	var setups []float64
	var protos []*sim.Prototype
	var buildTotal time.Duration
	for r := 0; r < w.setupRepeats; r++ {
		protos = protos[:0]
		runtime.GC()
		t0 := time.Now()
		for _, c := range w.configs {
			sp := tr.begin("sim.build", -1, int64(r))
			p, err := sim.NewPrototype(w.config(c, o.seed, w.ops))
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("building %v: %w", c, err)
			}
			protos = append(protos, p)
		}
		d := time.Since(t0)
		buildTotal += d
		setups = append(setups, d.Seconds())
	}
	rep.add("setup_s", median(setups))
	rep.lines = append(rep.lines, spreadLine("setup_s", setups, "s"))

	// The oracle-armed prefix: every translation re-checked against the
	// live page tables must agree.
	for ci, c := range w.configs {
		cfg := w.config(c, slotSeed(o.seed, 0), verifyOps)
		cfg.Verify = true
		in, err := protos[ci].NewInstance(cfg)
		if err == nil {
			err = stepAll(in, nil, -1, 0)
		}
		var res *sim.Result
		if err == nil {
			res, err = in.Finish()
		}
		switch {
		case err != nil:
			chk.fail("%v verify prefix: %v", c, err)
		case res.Mismatches != 0 || res.Checked == 0:
			chk.fail("%v verify prefix: %d mismatches in %d checks", c, res.Mismatches, res.Checked)
		default:
			chk.attempted++
		}
	}

	ps, err := measurePhases(o, tr, func(ph *walkPhase, d time.Duration, tr *tracer) {
		w.measure(ph, protos, o.seed, d, tr, chk)
	})
	if err != nil {
		return nil, err
	}
	ph := ps.measured
	rep.add("work_per_s", median(ph.rates))
	rep.add("job_p50_ms", percentile(ph.lats, 50))
	rep.add("job_p90_ms", percentile(ph.lats, 90))
	rep.linef("work unit: one simulated trace op; job: one %d-op run of one config (clone + step + finish)", w.ops)
	rep.lines = append(rep.lines, spreadLine("work_per_s", ph.rates, "1/s"), spreadLine("job_ms", ph.lats, "ms"))

	if o.trace {
		w.layers(rep, o, tr, ph, buildTotal)
		addTraced(rep, tr, ps, func(p walkPhase) []float64 { return p.rates }, w.name, o.seed)
	}
	return rep, chk.finish(rep, o.record)
}

// measure runs rounds of one job per config until the duration is spent.
func (w walkWorkload) measure(ph *walkPhase, protos []*sim.Prototype, seed int64, d time.Duration, tr *tracer, chk *checker) {
	deadline := time.Now().Add(d)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		slot := round % seedSlots
		var ops int
		var busy time.Duration
		for ci, c := range w.configs {
			job := int64(len(ph.jobs))
			root := tr.begin("bench.job", -1, job)
			js, err := runJob(protos[ci], w.config(c, slotSeed(seed, slot), w.ops), tr, root, job)
			tr.end(root)
			if err != nil {
				chk.fail("%v slot %d: %v", c, slot, err)
				continue
			}
			js.cfg = ci
			chk.observe(fmt.Sprintf("%v/slot%d", c, slot), resultDigest(js.res))
			ops += js.ops
			busy += js.step
			ph.lats = append(ph.lats, ms(js.total))
			ph.jobs = append(ph.jobs, js)
		}
		if busy > 0 {
			ph.rates = append(ph.rates, float64(ops)/busy.Seconds())
		}
	}
}

// runJob clones a prototype and steps the whole trace through it.
func runJob(p *sim.Prototype, cfg sim.Config, tr *tracer, parent int32, job int64) (jobStat, error) {
	var js jobStat
	t0 := time.Now()
	sp := tr.begin("sim.clone", parent, job)
	in, err := p.NewInstance(cfg)
	tr.end(sp)
	if err != nil {
		return js, err
	}
	t1 := time.Now()
	if err := stepAll(in, tr, parent, job); err != nil {
		return js, err
	}
	t2 := time.Now()
	sp = tr.begin("sim.finish", parent, job)
	res, err := in.Finish()
	tr.end(sp)
	if err != nil {
		return js, err
	}
	t3 := time.Now()
	js.res, js.ops, js.misses = res, res.Ops, res.TLBMisses
	js.clone, js.step, js.finish, js.total = t1.Sub(t0), t3.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	return js, nil
}

// stepAll steps an instance to the end of its trace, one span per batch.
func stepAll(in *sim.Instance, tr *tracer, parent int32, job int64) error {
	for {
		sp := tr.begin("sim.step", parent, job)
		n, err := in.StepBatch(sim.BatchOps)
		tr.end(sp)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
	}
}

// layers fills in the per-layer metrics of a traced walk run.
func (w walkWorkload) layers(rep *report, o options, tr *tracer, ph walkPhase, buildTotal time.Duration) {
	nBuild := w.setupRepeats * len(w.configs)
	rep.add("sim.build_ms", ms(buildTotal)/float64(nBuild))
	// Every job clones a prototype built in set-up: the share of machine
	// requests served without a build.
	n := float64(len(ph.jobs))
	rep.add("sim.protocache_hit_ratio", n/(n+float64(nBuild)))
	cfgs := make([]sim.Config, len(w.configs))
	for i, c := range w.configs {
		cfgs[i] = w.config(c, slotSeed(o.seed, 0), w.ops)
	}
	engineLayers(rep, tr, cfgs, ph.jobs)
}

// engineLayers reports the engine-side per-layer metrics: clone, step and
// finish times and the simulated counters of the completed jobs, then the
// layer replay of each config (its Seed and Ops select the replayed
// stream), whose step time not spent in the replayed layers is charged to
// the walker. jobs[i].cfg indexes cfgs.
func engineLayers(rep *report, tr *tracer, cfgs []sim.Config, jobs []jobStat) {
	var clone, step, finish time.Duration
	var ops int
	var misses uint64
	sum := map[string]uint64{}
	perCfg := make([]struct {
		step time.Duration
		ops  int
	}, len(cfgs))
	for _, j := range jobs {
		clone += j.clone
		step += j.step - j.finish
		finish += j.finish
		ops += j.ops
		misses += j.misses
		perCfg[j.cfg].step += j.step - j.finish
		perCfg[j.cfg].ops += j.ops
		for k, v := range j.res.Counters {
			sum[k] += v
		}
		sum["walk_cycles"] += j.res.WalkCycles
		sum["walks"] += j.res.Walks
		sum["seq_refs"] += j.res.SeqRefs
	}
	n := float64(len(jobs))
	rep.add("sim.clone_ms", ms(clone)/n)
	rep.add("sim.finish_us", float64(finish.Nanoseconds())/1e3/n)
	rep.add("sim.step_ns_per_op", float64(step.Nanoseconds())/float64(ops))
	rep.add("sim.step_ns_per_miss", float64(step.Nanoseconds())/float64(misses))

	lookups := float64(sum["tlb.l1_hits"] + sum["tlb.l2_hits"] + sum["tlb.misses"])
	rep.add("tlb.hit_ratio", float64(sum["tlb.l1_hits"]+sum["tlb.l2_hits"])/lookups)
	ratio := func(hits, miss string) float64 {
		return float64(sum[hits]) / float64(sum[hits]+sum[miss])
	}
	rep.add("cache.l1d_hit_ratio", ratio("cache.l1d_hits", "cache.l1d_misses"))
	rep.add("cache.l2_hit_ratio", ratio("cache.l2_hits", "cache.l2_misses"))
	rep.add("cache.llc_hit_ratio", ratio("cache.llc_hits", "cache.llc_misses"))
	rep.add("cache.mem_fetches_per_op", float64(sum["cache.mem_fetches"])/float64(ops))
	rep.add("core.walk_cycles_avg", float64(sum["walk_cycles"])/float64(sum["walks"]))
	rep.add("core.seq_refs_per_walk", float64(sum["seq_refs"])/float64(sum["walks"]))

	var all layerCost
	var engineNs float64
	var newAS, newVM time.Duration
	var nVM int
	var populate, munmap float64
	for ci, cfg := range cfgs {
		root := tr.begin("bench.replay", -1, int64(ci))
		lc, m, err := replayConfig(cfg, tr, root, int64(ci))
		var p, u float64
		if err == nil {
			p, u, err = kernelCost(m.as, probeVA, probeBytes, tr, root)
		}
		tr.end(root)
		rep.attempted++
		if err != nil {
			rep.linef("FAIL replay %v/%s/%s: %v", cfg.Env, cfg.Design, cfg.Workload.Name, err)
			rep.failed++
			continue
		}
		populate += p / float64(len(cfgs))
		munmap += u / float64(len(cfgs))
		lc.addTo(&all)
		if pc := perCfg[ci]; pc.ops > 0 {
			engineNs += float64(pc.step.Nanoseconds()) / float64(pc.ops) * float64(lc.ops)
		}
		newAS += m.newAS
		if m.vm != nil {
			newVM += m.newVM
			nVM++
		}
		rep.linef("  replay %v/%s/%s: ops %d, tlb l1 hits %d, l2 hits %d, misses %d",
			cfg.Env, cfg.Design, cfg.Workload.Name, lc.ops, lc.l1Hits, lc.l2Hits, lc.tlbMisses)
	}
	if all.ops == 0 {
		return
	}
	perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(all.ops) }
	rep.add("workload.gen_ns_per_op", perOp(all.gen))
	rep.add("tlb.lookup_ns_per_op", perOp(all.tlb))
	rep.add("pagetable.walk_ns_per_miss", float64(all.pagetable.Nanoseconds())/float64(all.misses))
	rep.add("cache.access_ns", perOp(all.cacheDur))
	replayed := float64((all.gen + all.tlb + all.pagetable + all.cacheDur).Nanoseconds())
	rep.add("core.walker_self_ns_per_miss", (engineNs-replayed)/float64(all.misses))
	rep.add("kernel.new_as_us", float64(newAS.Nanoseconds())/1e3/float64(len(cfgs)))
	rep.add("kernel.populate_ns_per_page", populate)
	rep.add("kernel.munmap_ns_per_page", munmap)
	if nVM > 0 {
		rep.add("virt.new_vm_us", float64(newVM.Nanoseconds())/1e3/float64(nVM))
	}
}

// probeVA and probeBytes place the kernel probe's VMA clear of every
// workload's layout.
const (
	probeVA    = mem.VAddr(0x7e0000000000)
	probeBytes = 64 << 20
)

// replayConfig builds cfg's standalone substrate and replays its stream.
func replayConfig(cfg sim.Config, tr *tracer, parent int32, op int64) (layerCost, *layerMachine, error) {
	m, err := newLayerMachine(cfg, tr, parent)
	if err != nil {
		return layerCost{}, nil, err
	}
	lc, err := m.replay(cfg.Seed, cfg.Ops, tr, parent, op)
	return lc, m, err
}
