package virt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/phys"
)

// shadowPerPage is the reference shadow build: every source leaf collected
// from PresentPages and PT.Lookup first, then mapped page by page through
// Map — the build that streaming and region filling replaced.
func shadowPerPage(vm *VM, src *kernel.AddressSpace, resolve func(mem.PAddr) (mem.PAddr, bool)) (*pagetable.Table, error) {
	type source struct {
		va   mem.VAddr
		size mem.PageSize
		dst  mem.PAddr
	}
	var srcs []source
	for _, v := range src.VMAs() {
		for _, p := range v.PresentPages() {
			if dst, size, ok := src.PT.Lookup(p.VA); ok {
				srcs = append(srcs, source{p.VA, size, mem.AlignDownP(dst, size.Bytes())})
			}
		}
	}
	machine := vm.Hyp.MachinePhys
	spt, err := pagetable.New(pagetable.NewPool(), mem.Levels4,
		func(int, mem.VAddr) (mem.PAddr, error) { return machine.AllocFrame(phys.KindPageTable) },
		func(_ int, pa mem.PAddr) { machine.FreeFrame(pa) })
	if err != nil {
		return nil, err
	}
	for _, s := range srcs {
		if s.size != mem.Size4K {
			if base, ok := contiguousMachine(s.dst, s.size, resolve); ok {
				if err := spt.Map(s.va, base, s.size, mem.PTEWritable); err != nil {
					return nil, err
				}
				vm.Hyp.ShadowSyncs++
				continue
			}
		}
		for off := uint64(0); off < s.size.Bytes(); off += mem.PageBytes4K {
			m, ok := resolve(s.dst + mem.PAddr(off))
			if !ok {
				continue
			}
			if err := spt.Map(s.va+mem.VAddr(off), mem.AlignDownP(m, mem.PageBytes4K), mem.Size4K, mem.PTEWritable); err != nil {
				return nil, err
			}
			vm.Hyp.ShadowSyncs++
		}
	}
	return spt, nil
}

// allocOrder drains a clone of pa with a fixed order pattern: equal
// sequences mean equal free lists, free-stack order included.
func allocOrder(pa *phys.Allocator) []mem.PAddr {
	c := pa.Clone()
	var out []mem.PAddr
	for i := 0; ; i++ {
		order := [...]int{0, 0, 3, 0, 9, 1}[i%6]
		p, err := c.Alloc(order, phys.KindMovable)
		if err != nil {
			if order == 0 {
				return out
			}
			continue
		}
		out = append(out, p)
	}
}

// checkShadowBuild builds the shadow of src with buildShadow and with the
// reference from the same machine-allocator state, and requires the same
// frames taken, the same sync count and the same walk for every page of
// src's VMAs.
func checkShadowBuild(t *testing.T, name string, vm *VM, src *kernel.AddressSpace, resolve func(mem.PAddr) (mem.PAddr, bool)) {
	t.Helper()
	machine, syncs := vm.Hyp.MachinePhys, vm.Hyp.ShadowSyncs
	refMachine := machine.Clone()
	got, err := buildShadow(vm, src, resolve)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	gotSyncs := vm.Hyp.ShadowSyncs - syncs
	vm.Hyp.MachinePhys, vm.Hyp.ShadowSyncs = refMachine, syncs
	want, err := shadowPerPage(vm, src, resolve)
	vm.Hyp.MachinePhys = machine
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if wantSyncs := vm.Hyp.ShadowSyncs - syncs; gotSyncs != wantSyncs {
		t.Fatalf("%s: %d shadow syncs, reference %d", name, gotSyncs, wantSyncs)
	}
	if got.Mapped != want.Mapped || got.Pool().NodeCount() != want.Pool().NodeCount() {
		t.Fatalf("%s: Mapped %v, %d nodes; reference %v, %d", name, got.Mapped, got.Pool().NodeCount(), want.Mapped, want.Pool().NodeCount())
	}
	if machine.Stats != refMachine.Stats || !slices.Equal(allocOrder(machine), allocOrder(refMachine)) {
		t.Fatalf("%s: machine allocator diverged: %+v vs reference %+v", name, machine.Stats, refMachine.Stats)
	}
	for _, v := range src.VMAs() {
		for va := v.Start; va < v.End; va += mem.PageBytes4K {
			g, w := got.Walk(va), want.Walk(va)
			if g.PTE != w.PTE || g.Size != w.Size || g.OK != w.OK || !slices.Equal(g.Steps, w.Steps) {
				t.Fatalf("%s: shadow walk %#x = %+v, reference %+v", name, uint64(va), g, w)
			}
		}
	}
}

// TestShadowBuildMatchesPerPage checks both shadow builds — guest VA to
// machine, and the nested L2PA to L0PA — with guest and host THP on and
// off, so huge leaves are kept, splintered, or splintered around host
// pages that no longer resolve, and guest pages unmapped in between.
func TestShadowBuildMatchesPerPage(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		guestTHP, hostTHP := seed&1 == 1, seed&2 == 2
		e := newVEnv(t, hostTHP, false)
		guest, err := e.vm.NewGuestProcess(guestTHP, 2)
		if err != nil {
			t.Fatal(err)
		}
		heap, err := guest.MMap(0x40000000+mem.VAddr(rng.Intn(512))<<mem.PageShift4K, uint64(2+rng.Intn(8))<<20, kernel.VMAHeap, "heap")
		if err != nil {
			t.Fatal(err)
		}
		if err := guest.Populate(heap); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			_ = guest.UnmapPage(heap, heap.Start+mem.VAddr(rng.Intn(heap.Pages()))<<mem.PageShift4K)
		}
		// Drop host backing under a few guest pages: their shadow entries
		// cannot resolve and stay absent.
		for i := 0; i < 8; i++ {
			va := heap.Start + mem.VAddr(rng.Intn(heap.Pages()))<<mem.PageShift4K
			if gpa, _, ok := guest.PT.Lookup(va); ok {
				if err := e.vm.HostAS.SplitHugePage(e.vm.RAMVMA, mem.VAddr(gpa)); err != nil && err != kernel.ErrNotPopulated {
					t.Fatal(err)
				}
				_ = e.vm.HostAS.UnmapPage(e.vm.RAMVMA, mem.VAddr(gpa))
			}
		}
		checkShadowBuild(t, fmt.Sprintf("shadow VA, guest THP %v host THP %v", guestTHP, hostTHP), e.vm, guest, e.vm.MachineAddr)

		n := newNestedEnv(t, seed&1 == 1)
		checkShadowBuild(t, fmt.Sprintf("nested shadow, THP %v", seed&1 == 1), n.l2, n.l2.HostAS, n.l2.Parent.MachineAddr)
	}
}
