package main

import (
	"fmt"
	"time"

	"dmt/internal/cache"
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/phys"
	"dmt/internal/sim"
	"dmt/internal/tea"
	"dmt/internal/tlb"
	"dmt/internal/virt"
	"dmt/internal/workload"
)

// The layer replay harness rebuilds a walk config's substrate from the
// layers' public constructors, sized the way internal/sim's environment
// builders size it, regenerates the config's VA stream with the same seed
// the engine uses, and then drives that stream through one layer at a time:
// trace generation, the TLB, the functional page-table walk of the TLB
// misses, and the cache hierarchy for the data accesses. Each pass is timed
// as a whole, so the per-op figures carry no timer overhead.

// layerMachine is one config's standalone substrate.
type layerMachine struct {
	as    *kernel.AddressSpace // the process (native) or guest (virt, nested)
	vm    *virt.VM             // innermost VM; nil native
	hier  *cache.Hierarchy
	built *workload.Built
	tlb   tlb.Config

	// newAS and newVM time creating the process (guest) address space and
	// a VM.
	newAS, newVM time.Duration
}

// frames mirrors internal/sim's allocator sizing.
func frames(ws uint64, slack float64, extra uint64) int {
	return int((uint64(float64(ws)*slack) + extra) >> mem.PageShift4K)
}

// scaledTLB mirrors internal/sim's TLB scaling.
func scaledTLB(scale int) tlb.Config {
	c := tlb.DefaultConfig()
	c.L1Entries = max(c.L1Ways, c.L1Entries/scale)
	c.L2Entries = max(c.L2Ways, c.L2Entries/scale)
	c.L1Entries -= c.L1Entries % c.L1Ways
	c.L2Entries -= c.L2Entries % c.L2Ways
	return c
}

func newLayerMachine(cfg sim.Config, tr *tracer, parent int32) (*layerMachine, error) {
	cfg = cfg.Normalized()
	ws := cfg.WSBytes
	m := &layerMachine{tlb: scaledTLB(cfg.CacheScale)}
	dmtLike := cfg.Design == sim.DesignDMT || cfg.Design == sim.DesignPvDMT
	var err error
	switch cfg.Env {
	case sim.EnvNative:
		pa := phys.New(0, frames(ws, 1.35, 256<<20))
		t0 := time.Now()
		m.as, err = kernel.NewAddressSpace(pa, kernel.Config{THP: cfg.THP, ASID: 1})
		m.newAS = time.Since(t0)
		tr.record("kernel.new_as", parent, 0, m.newAS)
		if err != nil {
			return nil, err
		}
		if cfg.Design == sim.DesignDMT {
			mgr := tea.NewManager(m.as, tea.NewPhysBackend(pa), tea.DefaultConfig(cfg.THP))
			m.as.SetHooks(mgr)
		}
		if m.hier, err = cache.NewHierarchy(cache.ScaledConfig(cfg.CacheScale)); err != nil {
			return nil, err
		}
	case sim.EnvVirt:
		guestRAM := mem.AlignUp(mem.VAddr(uint64(float64(ws)*1.3)+256<<20), mem.PageBytes2M)
		hyp, err := virt.NewHypervisor(frames(uint64(guestRAM), 1.25, 384<<20), cache.ScaledConfig(cfg.CacheScale))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		m.vm, err = hyp.NewVM(virt.VMConfig{
			Name: "vm0", RAMBytes: uint64(guestRAM), HostTHP: cfg.THP,
			HostDMT: dmtLike, ASID: 100, PvTEAWindowBytes: 64 << 20,
		})
		m.newVM = time.Since(t0)
		tr.record("virt.new_vm", parent, 0, m.newVM)
		if err != nil {
			return nil, err
		}
		m.hier = hyp.Hier
	case sim.EnvNested:
		l2RAM := mem.AlignUp(mem.VAddr(uint64(float64(ws)*1.3)+192<<20), mem.PageBytes2M)
		l1RAM := mem.AlignUp(l2RAM+mem.VAddr(uint64(float64(l2RAM)*0.25)+256<<20), mem.PageBytes2M)
		hyp, err := virt.NewHypervisor(frames(uint64(l1RAM), 1.2, 384<<20), cache.ScaledConfig(cfg.CacheScale))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		l1, err := hyp.NewVM(virt.VMConfig{
			Name: "L1", RAMBytes: uint64(l1RAM), HostTHP: cfg.THP, HostDMT: dmtLike,
			ASID: 100, PvTEAWindowBytes: 96 << 20,
		})
		d1 := time.Since(t0)
		tr.record("virt.new_vm", parent, 0, d1)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		m.vm, err = hyp.NewNestedVM(l1, virt.VMConfig{
			Name: "L2", RAMBytes: uint64(l2RAM), HostTHP: cfg.THP, HostDMT: dmtLike,
			ASID: 101, PvTEAWindowBytes: 64 << 20,
		})
		d2 := time.Since(t0)
		tr.record("virt.new_vm", parent, 0, d2)
		if err != nil {
			return nil, err
		}
		m.newVM = (d1 + d2) / 2 // per VM, like the single-level case
		m.hier = hyp.Hier
	default:
		return nil, fmt.Errorf("unknown environment %v", cfg.Env)
	}
	if m.vm != nil {
		t0 := time.Now()
		m.as, err = m.vm.NewGuestProcess(cfg.THP, 1)
		m.newAS = time.Since(t0)
		tr.record("kernel.new_as", parent, 0, m.newAS)
		if err != nil {
			return nil, err
		}
		switch cfg.Design {
		case sim.DesignDMT:
			m.as.SetHooks(tea.NewManager(m.as, tea.NewPhysBackend(m.vm.GuestPhys), tea.DefaultConfig(cfg.THP)))
		case sim.DesignPvDMT:
			m.as.SetHooks(tea.NewManager(m.as, virt.NewHypercallBackend(m.vm), tea.DefaultConfig(cfg.THP)))
		}
	}
	t0 := time.Now()
	m.built, err = cfg.Workload.Build(m.as, ws)
	tr.record("workload.build", parent, 0, time.Since(t0))
	if err != nil {
		return nil, err
	}
	return m, nil
}

// translate resolves va to its machine address and leaf size (the size the
// engine installs into the TLB: the guest leaf under virtualization).
func (m *layerMachine) translate(va mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	pa, size, ok := m.as.PT.Lookup(va)
	if !ok || m.vm == nil {
		return pa, size, ok
	}
	mpa, ok := m.vm.MachineAddr(pa)
	return mpa, size, ok
}

// layerCost is one replay's measured work and host time per layer.
type layerCost struct {
	ops, misses                   int
	l1Hits, l2Hits, tlbMisses     uint64
	gen, tlb, pagetable, cacheDur time.Duration
}

func (c *layerCost) addTo(o *layerCost) {
	o.ops += c.ops
	o.misses += c.misses
	o.l1Hits += c.l1Hits
	o.l2Hits += c.l2Hits
	o.tlbMisses += c.tlbMisses
	o.gen += c.gen
	o.tlb += c.tlb
	o.pagetable += c.pagetable
	o.cacheDur += c.cacheDur
}

// replay drives ops references of the seed's VA stream through each layer.
// The TLB starts empty and the cache hierarchy is the machine's own, as in
// a fresh engine instance. op tags the spans.
func (m *layerMachine) replay(seed int64, ops int, tr *tracer, parent int32, op int64) (layerCost, error) {
	c := layerCost{ops: ops}
	vas := make([]mem.VAddr, ops)
	gen := m.built.NewGen(seed)
	t0 := time.Now()
	for i := range vas {
		vas[i], _ = gen()
	}
	c.gen = time.Since(t0)
	tr.record("workload.gen", parent, op, c.gen)

	// Untimed: the translation of every op, which the TLB fills and the
	// data accesses need.
	pas := make([]mem.PAddr, ops)
	sizes := make([]mem.PageSize, ops)
	for i, va := range vas {
		pa, size, ok := m.translate(va)
		if !ok {
			return c, fmt.Errorf("replay: %#x not mapped", uint64(va))
		}
		pas[i], sizes[i] = pa, size
	}

	t, err := tlb.New(m.tlb)
	if err != nil {
		return c, err
	}
	const asid = 1 // the engine's MMU ASID
	scratch := make([]mem.PAddr, ops)
	missAt := make([]int, 0, ops)
	t0 = time.Now()
	for i := 0; i < ops; {
		hits, missed := t.LookupBatch(vas[i:], asid, scratch[i:])
		i += hits
		if missed {
			t.Insert(vas[i], mem.AlignDownP(pas[i], sizes[i].Bytes()), sizes[i], asid)
			missAt = append(missAt, i)
			i++
		}
	}
	c.tlb = time.Since(t0)
	tr.record("tlb.lookup", parent, op, c.tlb)
	c.misses = len(missAt)
	c.l1Hits, c.l2Hits, c.tlbMisses = t.L1Hits, t.L2Hits, t.Misses

	var steps, hsteps []pagetable.Step
	t0 = time.Now()
	for _, i := range missAt {
		w := m.as.PT.WalkInto(vas[i], steps[:0])
		steps = w.Steps
		if m.vm == nil {
			continue
		}
		for _, s := range w.Steps {
			hsteps = m.hostWalk(s.Addr, hsteps)
		}
		hsteps = m.hostWalk(w.PA, hsteps)
	}
	c.pagetable = time.Since(t0)
	tr.record("pagetable.walk", parent, op, c.pagetable)

	t0 = time.Now()
	for i := 0; i < ops; i += sim.BatchOps {
		m.hier.AccessBatch(pas[i:min(i+sim.BatchOps, ops)])
	}
	c.cacheDur = time.Since(t0)
	tr.record("cache.access", parent, op, c.cacheDur)
	return c, nil
}

// hostWalk resolves a guest-physical address through every host table
// below the guest, as the 2D (or nested 3D) walk's host dimension does.
func (m *layerMachine) hostWalk(gpa mem.PAddr, steps []pagetable.Step) []pagetable.Step {
	for v := m.vm; v != nil; v = v.Parent {
		w := v.HostAS.PT.WalkInto(mem.VAddr(gpa), steps[:0])
		steps, gpa = w.Steps, w.PA
	}
	return steps
}

// kernelCost times mapping, populating and unmapping a fresh VMA of the
// given size in the machine's process address space (with its THP policy
// and TEA hooks), returning ns per 4 KiB page for populate and munmap.
func kernelCost(as *kernel.AddressSpace, at mem.VAddr, bytes uint64, tr *tracer, parent int32) (populate, munmap float64, err error) {
	pages := float64(bytes >> mem.PageShift4K)
	v, err := as.MMap(at, bytes, kernel.VMAHeap, "perfbench")
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	err = as.Populate(v)
	d := time.Since(t0)
	tr.record("kernel.populate", parent, 0, d)
	if err != nil {
		return 0, 0, err
	}
	populate = float64(d.Nanoseconds()) / pages
	t0 = time.Now()
	err = as.MUnmap(v)
	d = time.Since(t0)
	tr.record("kernel.munmap", parent, 0, d)
	if err != nil {
		return 0, 0, err
	}
	return populate, float64(d.Nanoseconds()) / pages, nil
}
