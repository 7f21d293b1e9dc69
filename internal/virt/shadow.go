package virt

import (
	"dmt/internal/kernel"
	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/phys"
)

// BuildShadowVA constructs a shadow page table mapping gVA → machine PA by
// composing the guest process table with the host tables (§2.1.2): the
// hypervisor-maintained sPT of classic shadow paging. Every synchronized
// leaf is counted as a shadow sync (each would cost a VM exit when it
// happens at runtime — the overhead quantified in §2.2).
//
// Guest huge pages are preserved in the shadow only when the backing
// guest-physical range is machine-contiguous and aligned; otherwise the
// leaf is splintered into base pages, as real shadow paging must.
func BuildShadowVA(vm *VM, guestAS *kernel.AddressSpace) (*pagetable.Table, error) {
	return buildShadow(vm, guestAS, func(gpa mem.PAddr) (mem.PAddr, bool) {
		return vm.MachineAddr(gpa)
	})
}

// BuildNestedShadow constructs the compressed shadow table of nested
// virtualization (Figure 3): L2PA → L0PA, combining the L1 table
// (L2PA→L1PA) with the L0 table (L1PA→L0PA). vm must be an L2 VM.
func BuildNestedShadow(vm *VM) (*pagetable.Table, error) {
	return buildShadow(vm, vm.HostAS, func(l1pa mem.PAddr) (mem.PAddr, bool) {
		return vm.Parent.MachineAddr(l1pa)
	})
}

// buildShadow mirrors every leaf of src, streamed by ForEachLeaf, through
// resolve into a new table on the machine allocator.
func buildShadow(vm *VM, src *kernel.AddressSpace, resolve func(mem.PAddr) (mem.PAddr, bool)) (*pagetable.Table, error) {
	machine := vm.Hyp.MachinePhys
	pool := pagetable.NewPool()
	spt, err := pagetable.New(pool, mem.Levels4,
		func(level int, va mem.VAddr) (mem.PAddr, error) {
			return machine.AllocFrame(phys.KindPageTable)
		},
		func(level int, pa mem.PAddr) { machine.FreeFrame(pa) })
	if err != nil {
		return nil, err
	}
	err = src.ForEachLeaf(func(va mem.VAddr, dst mem.PAddr, size mem.PageSize) error {
		// A huge leaf stays huge only if the machine backing is contiguous
		// and aligned; otherwise it is splintered into base pages.
		if size != mem.Size4K {
			if base, ok := contiguousMachine(dst, size, resolve); ok {
				if err := spt.Map(va, base, size, mem.PTEWritable); err != nil {
					return err
				}
				vm.Hyp.ShadowSyncs++
				return nil
			}
		}
		for off := uint64(0); off < size.Bytes(); off += mem.PageBytes4K {
			m, ok := resolve(dst + mem.PAddr(off))
			if !ok {
				continue
			}
			if err := spt.Map(va+mem.VAddr(off), mem.AlignDownP(m, mem.PageBytes4K), mem.Size4K, mem.PTEWritable); err != nil {
				return err
			}
			vm.Hyp.ShadowSyncs++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return spt, nil
}

func contiguousMachine(dst mem.PAddr, size mem.PageSize, resolve func(mem.PAddr) (mem.PAddr, bool)) (mem.PAddr, bool) {
	base, ok := resolve(dst)
	if !ok || !mem.IsAligned(uint64(base), size.Bytes()) {
		return 0, false
	}
	for off := uint64(mem.PageBytes4K); off < size.Bytes(); off += mem.PageBytes4K {
		m, ok := resolve(dst + mem.PAddr(off))
		if !ok || m != base+mem.PAddr(off) {
			return 0, false
		}
	}
	return base, true
}
