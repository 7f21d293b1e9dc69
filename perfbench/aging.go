package main

import (
	"fmt"
	"runtime"
	"time"

	"dmt/internal/cache"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/phys"
	"dmt/internal/scenario"
	"dmt/internal/tea"
	"dmt/internal/virt"
)

// aging_churn ages a node per design with the conservation oracle armed.
// Each job is one scenario.Run; its lifecycle events (boots, deaths, mmap
// and munmap churn, demand faults, TEA migrations) write page tables and
// allocators instead of walking them. THP is off, as in the scenario's
// default configuration.

var agingDesigns = []string{"dmt", "pvdmt"}

const (
	agingEvents        = 2_000
	agingSetupRepeats  = 100
	agingProbeRepeats  = 64
	agingMemMiB        = 128
	agingProbeHeapSize = 2 << 20 // a booted process's heap in the scenario
)

func agingConfig(design string, seed int64, events, epochs int) scenario.Config {
	return scenario.Config{
		Design: design, Seed: seed, Events: events, VMs: 16, Epochs: epochs,
		Shards: 2, Workers: 2, MemMiB: agingMemMiB, Verify: true,
	}
}

func runAging(o options) (*report, error) {
	const name = "aging_churn"
	rep := &report{}
	chk, err := newChecker(name, o)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up: run start to first event, as a one-event-per-shard run of
	// each design.
	var setups []float64
	for r := 0; r < agingSetupRepeats; r++ {
		runtime.GC()
		t0 := time.Now()
		for _, d := range agingDesigns {
			sp := tr.begin("scenario.setup", -1, int64(r))
			_, err := scenario.Run(agingConfig(d, splitmix(o.seed, r), 2, 1))
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s set-up: %w", d, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.add("setup_s", median(setups))
	rep.lines = append(rep.lines, spreadLine("setup_s", setups, "s"))

	ps, err := measurePhases(o, tr, func(ph *agingPhase, d time.Duration, tr *tracer) {
		measureAging(ph, o.seed, d, tr, chk)
	})
	if err != nil {
		return nil, err
	}
	ph := ps.measured
	rep.add("work_per_s", median(ph.rates))
	rep.add("job_p50_ms", percentile(ph.lats, 50))
	rep.add("job_p90_ms", percentile(ph.lats, 90))
	rep.linef("work unit: one lifecycle event; job: one %d-event scenario run of one design (2 shards, oracle on)", agingEvents)
	rep.lines = append(rep.lines, spreadLine("work_per_s", ph.rates, "1/s"), spreadLine("job_ms", ph.lats, "ms"))

	if o.trace {
		var boots, allocs, migrated uint64
		for _, r := range ph.first {
			for _, row := range r.Rows {
				boots += row.Boots
				allocs += row.TEAAllocs
				migrated += row.FramesMigrated
			}
		}
		rep.add("scenario.boots", float64(boots))
		rep.add("scenario.tea_allocs", float64(allocs))
		rep.add("scenario.frames_migrated", float64(migrated))
		if err := agingKernelProbe(rep, tr); err != nil {
			rep.linef("FAIL kernel probe: %v", err)
			rep.attempted++
			rep.failed++
		}
		addTraced(rep, tr, ps, func(p agingPhase) []float64 { return p.rates }, name, o.seed)
	}
	return rep, chk.finish(rep, o.record)
}

type agingPhase struct {
	rates []float64 // per round: events per second
	lats  []float64 // per job, ms
	first map[string]*scenario.Result
}

func measureAging(ph *agingPhase, seed int64, d time.Duration, tr *tracer, chk *checker) {
	if ph.first == nil {
		ph.first = map[string]*scenario.Result{}
	}
	deadline := time.Now().Add(d)
	job := int64(len(ph.lats))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		slot := round % seedSlots
		events := 0
		var busy time.Duration
		for _, design := range agingDesigns {
			t0 := time.Now()
			sp := tr.begin("scenario.run", -1, job)
			res, err := scenario.Run(agingConfig(design, slotSeed(seed, slot), agingEvents, 4))
			tr.end(sp)
			el := time.Since(t0)
			job++
			key := fmt.Sprintf("%s/slot%d", design, slot)
			if err != nil {
				chk.fail("%s: %v", key, err) // includes conservation-oracle violations
				continue
			}
			if res.OracleChecks == 0 {
				chk.fail("%s: the oracle never ran", key)
				continue
			}
			chk.observe(key, agingDigest(res))
			if slot == 0 && ph.first[design] == nil {
				ph.first[design] = res
			}
			for _, row := range res.Rows {
				events += row.Events
			}
			busy += el
			ph.lats = append(ph.lats, ms(el))
		}
		if busy > 0 {
			ph.rates = append(ph.rates, float64(events)/busy.Seconds())
		}
	}
}

// agingKernelProbe times the kernel and virt calls a scenario event makes,
// at the scenario's sizes: a process address space with THP and a TEA
// manager over the node's allocator, a booted heap populated and unmapped,
// and a pvDMT VM boot. THP stays off, as in the aging runs.
func agingKernelProbe(rep *report, tr *tracer) error {
	root := tr.begin("bench.kernel_probe", -1, 0)
	defer tr.end(root)
	machine := phys.New(0, agingMemMiB<<8)
	teaCfg := tea.DefaultConfig(false)
	teaCfg.GradualMigration = true
	var newAS time.Duration
	var populate, munmap float64
	for i := 0; i < agingProbeRepeats; i++ {
		t0 := time.Now()
		as, err := kernel.NewAddressSpace(machine, kernel.Config{ASID: uint16(i + 1)})
		d := time.Since(t0)
		tr.record("kernel.new_as", root, int64(i), d)
		newAS += d
		if err != nil {
			return err
		}
		as.SetHooks(tea.NewManager(as, tea.NewPhysBackend(machine), teaCfg))
		p, u, err := kernelCost(as, mem.VAddr(1<<30), agingProbeHeapSize, tr, root)
		if err != nil {
			return err
		}
		populate += p / agingProbeRepeats
		munmap += u / agingProbeRepeats
		machine.FreeFrame(as.PT.RootPA())
	}
	hyp, err := virt.NewHypervisor(agingMemMiB<<8, cache.DefaultConfig())
	if err != nil {
		return err
	}
	var newVM time.Duration
	for i := 0; i < agingProbeRepeats; i++ {
		t0 := time.Now()
		vm, err := hyp.NewVM(virt.VMConfig{
			Name: fmt.Sprintf("vm%d", i), RAMBytes: 2 << 20, HostDMT: true,
			ASID: uint16(i + 1), PvTEAWindowBytes: 2 << 20,
		})
		d := time.Since(t0)
		tr.record("virt.new_vm", root, int64(i), d)
		newVM += d
		if err != nil {
			return err
		}
		if err := vm.Destroy(); err != nil {
			return err
		}
	}
	rep.attempted++
	rep.add("kernel.new_as_us", float64(newAS.Nanoseconds())/1e3/agingProbeRepeats)
	rep.add("kernel.populate_ns_per_page", populate)
	rep.add("kernel.munmap_ns_per_page", munmap)
	rep.add("virt.new_vm_us", float64(newVM.Nanoseconds())/1e3/agingProbeRepeats)
	return nil
}
