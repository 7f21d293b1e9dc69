package kernel

import (
	"errors"
	"runtime"
	"testing"

	"dmt/internal/mem"
	"dmt/internal/phys"
)

// drainCheck tears the VMA down and asserts the allocator returned to its
// pre-workload state: every frame freed exactly once, buddy metadata sound.
func drainCheck(t *testing.T, as *AddressSpace, v *VMA, baselineFree int) {
	t.Helper()
	if err := as.MUnmap(v); err != nil {
		t.Fatalf("MUnmap: %v", err)
	}
	if got := as.Phys.FreeFrames(); got != baselineFree {
		t.Fatalf("FreeFrames = %d after teardown, want %d (leak or double free)", got, baselineFree)
	}
	if err := as.Phys.Audit(); err != nil {
		t.Fatalf("allocator audit after teardown: %v", err)
	}
}

// TestShrinkSplitsStraddlingHugePage pins the Shrink fix: a 2 MiB leaf
// whose base lies below the new end used to survive the teardown loop
// while still translating VAs beyond the shrunk VMA, so a later MMap over
// the vacated range aliased the stale tail frames. Shrink must shatter
// the straddling huge page and unmap its tail.
func TestShrinkSplitsStraddlingHugePage(t *testing.T) {
	as := newAS(t, 8192, Config{THP: true})
	baseline := as.Phys.FreeFrames()
	const start = mem.VAddr(1 << 30)
	v, err := as.MMap(start, 4<<20, VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	if _, size, ok := as.PT.Lookup(start + 2<<20); !ok || size != mem.Size2M {
		t.Fatalf("precondition: second huge page not mapped (ok=%v size=%v)", ok, size)
	}
	newEnd := start + 3<<20 // mid-way through the second huge page
	if err := as.Shrink(v, newEnd); err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if _, _, ok := as.PT.Lookup(newEnd); ok {
		t.Fatal("translation beyond the shrunk VMA survived")
	}
	if _, _, ok := as.PT.Lookup(start + 4<<20 - mem.PageBytes4K); ok {
		t.Fatal("last page of the old range still translates")
	}
	if pa, size, ok := as.PT.Lookup(start + 2<<20); !ok || size != mem.Size4K || pa == 0 {
		t.Fatalf("head of the straddling huge page should remain as base pages (ok=%v size=%v)", ok, size)
	}
	if _, size, ok := as.PT.Lookup(start); !ok || size != mem.Size2M {
		t.Fatal("untouched huge page below the straddle was disturbed")
	}
	// The vacated range must re-fault fresh frames, not alias stale ones.
	nv, err := as.MMap(newEnd, 1<<20, VMAAnon, "reuse")
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := as.Touch(newEnd, true)
	if err != nil {
		t.Fatal(err)
	}
	if !faulted {
		t.Fatal("Touch on the reused range hit a stale translation instead of faulting")
	}
	if err := as.MUnmap(nv); err != nil {
		t.Fatal(err)
	}
	drainCheck(t, as, v, baseline)
}

// TestSplitHugePageRestoresLeafOnFailure pins the SplitHugePage unwind: a
// node-allocation failure mid-split used to leave the 2 MiB frame leaked
// with the region unmapped. The huge leaf must be restored intact.
func TestSplitHugePageRestoresLeafOnFailure(t *testing.T) {
	as := newAS(t, 2048, Config{THP: true})
	baseline := as.Phys.FreeFrames()
	const start = mem.VAddr(1 << 30)
	v, err := as.MMap(start, 2<<20, VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	// Exhaust the allocator so the split cannot allocate its L1 node.
	var held []mem.PAddr
	for {
		pa, err := as.Phys.AllocFrame(phys.KindUnmovable)
		if err != nil {
			break
		}
		held = append(held, pa)
	}
	if err := as.SplitHugePage(v, start); err == nil {
		t.Fatal("SplitHugePage succeeded with an exhausted allocator")
	}
	if pa, size, ok := as.PT.Lookup(start); !ok || size != mem.Size2M || pa == 0 {
		t.Fatalf("huge leaf not restored after failed split (ok=%v size=%v)", ok, size)
	}
	if size, ok := v.pageAt(start); !ok || size != mem.Size2M {
		t.Fatalf("VMA page state not restored after failed split (ok=%v size=%v)", ok, size)
	}
	for _, pa := range held {
		as.Phys.FreeFrame(pa)
	}
	// With memory back, the split must now succeed and teardown balance.
	if err := as.SplitHugePage(v, start); err != nil {
		t.Fatalf("split after refill: %v", err)
	}
	drainCheck(t, as, v, baseline)
}

// TestUnmapPageFreesByInstalledLeaf pins the unmapPage fix: the teardown
// path must free by what the page table actually holds, not by the VMA's
// recorded size — freeing a 4 KiB frame at order 9 corrupts the buddy
// allocator (or panics on alignment) when bookkeeping has drifted.
func TestUnmapPageFreesByInstalledLeaf(t *testing.T) {
	as := newAS(t, 4096, Config{})
	baseline := as.Phys.FreeFrames()
	const start = mem.VAddr(1 << 30)
	v, err := as.MMap(start, 2<<20, VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Touch(start, true); err != nil {
		t.Fatal(err)
	}
	// Simulate drifted bookkeeping: the recorded size says 2 MiB while the
	// installed leaf is a base page.
	v.clearPresent(start)
	v.setPresent(start, mem.Size2M, false)
	drainCheck(t, as, v, baseline)
}

// TestRelocateRefusesHugePages pins the Relocate guard: the buddy
// allocator migrates single frames, and remapping a 2 MiB leaf onto an
// order-0 destination would alias the 511 frames behind it. The owner
// must refuse so the allocator rolls the migration back.
func TestRelocateRefusesHugePages(t *testing.T) {
	as := newAS(t, 4096, Config{THP: true})
	baseline := as.Phys.FreeFrames()
	const start = mem.VAddr(1 << 30)
	v, err := as.MMap(start, 2<<20, VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	old, size, ok := as.PT.Lookup(start)
	if !ok || size != mem.Size2M {
		t.Fatalf("precondition: no huge page (ok=%v size=%v)", ok, size)
	}
	// A 2 MiB-aligned destination is the dangerous case: the remap would
	// succeed and silently alias half a megabyte of strangers' frames.
	dst, err := as.Phys.Alloc(9, phys.KindUnmovable)
	if err != nil {
		t.Fatal(err)
	}
	if as.Relocate(old, dst) {
		t.Fatal("Relocate accepted a huge-page migration")
	}
	if pa, _, _ := as.PT.Lookup(start); pa != old {
		t.Fatalf("huge mapping moved: %#x -> %#x", uint64(old), uint64(pa))
	}
	as.Phys.Free(dst, 9)
	drainCheck(t, as, v, baseline)
}

// TestRelocateMigratesOnlyBasePages pins the rmap's contents: it records
// base pages only, so Relocate refuses every frame of a THP, head included,
// until SplitHugePage re-records the block as 512 base pages, each of which
// then migrates on its own.
func TestRelocateMigratesOnlyBasePages(t *testing.T) {
	as := newAS(t, 4096, Config{THP: true})
	baseline := as.Phys.FreeFrames()
	const start = mem.VAddr(1 << 30)
	v, err := as.MMap(start, 2<<20, VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	head, size, ok := as.PT.Lookup(start)
	if !ok || size != mem.Size2M {
		t.Fatalf("precondition: no huge page (ok=%v size=%v)", ok, size)
	}
	dst, err := as.Phys.AllocFrame(phys.KindMovable)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []mem.PAddr{head, head + mem.PageBytes4K, head + mem.PageBytes2M - mem.PageBytes4K} {
		if as.Relocate(f, dst) {
			t.Fatalf("Relocate accepted frame %#x of an unsplit huge page", uint64(f))
		}
	}
	as.Phys.FreeFrame(dst)
	if err := as.SplitHugePage(v, start); err != nil {
		t.Fatal(err)
	}
	for off := mem.VAddr(0); off < mem.PageBytes2M; off += mem.PageBytes4K {
		old := head + mem.PAddr(uint64(off))
		dst, err := as.Phys.AllocFrame(phys.KindMovable)
		if err != nil {
			t.Fatal(err)
		}
		if !as.Relocate(old, dst) {
			t.Fatalf("Relocate refused base frame %#x after the split", uint64(old))
		}
		if pa, size, ok := as.PT.Lookup(start + off); !ok || size != mem.Size4K || pa != dst {
			t.Fatalf("page %#x maps %#x (%v, %v) after migration, want %#x", uint64(start+off), uint64(pa), size, ok, uint64(dst))
		}
		if as.Relocate(old, dst) {
			t.Fatalf("Relocate accepted the vacated frame %#x", uint64(old))
		}
		as.Phys.FreeFrame(old)
	}
	drainCheck(t, as, v, baseline)
}

// TestPromoteTHPSkipsResidentPages pins the PromoteTHP guard: collapsing
// a region containing a caller-owned resident page (a mapped gTEA window
// slot) would replace the foreign mapping with an anonymous huge page.
func TestPromoteTHPSkipsResidentPages(t *testing.T) {
	as := newAS(t, 4096, Config{THP: true})
	const start = mem.VAddr(1 << 30)
	v, err := as.MMap(start, 2<<20, VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	if err := as.SplitHugePage(v, start); err != nil {
		t.Fatal(err)
	}
	// Replace one base page with a caller-owned resident frame.
	foreign, err := as.Phys.AllocFrame(phys.KindUnmovable)
	if err != nil {
		t.Fatal(err)
	}
	resVA := start + 5*mem.PageBytes4K
	if err := as.MapResident(v, resVA, foreign, mem.Size4K); err != nil {
		t.Fatal(err)
	}
	if n := as.PromoteTHP(v); n != 0 {
		t.Fatalf("PromoteTHP collapsed over a resident page (promoted %d)", n)
	}
	if pa, _, ok := as.PT.Lookup(resVA); !ok || pa != foreign {
		t.Fatalf("resident mapping disturbed (ok=%v pa=%#x want %#x)", ok, uint64(pa), uint64(foreign))
	}
	if err := as.MUnmap(v); err != nil {
		t.Fatal(err)
	}
	as.Phys.FreeFrame(foreign) // resident frames are the caller's to free
	if err := as.Phys.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultWritesAccessedDirtyWithLeaf pins the fault path's A/D fold: the
// leaf a fault installs already carries the A bit, and the D bit exactly
// when the access was a write — 4K and THP leaves alike, whether the fault
// came through Touch or Populate — and Touch on a mapped page still sets
// the bits the access implies.
func TestFaultWritesAccessedDirtyWithLeaf(t *testing.T) {
	as := newAS(t, 8192, Config{THP: true})
	v, err := as.MMap(0x4000_0000, 4<<20+3*mem.PageBytes4K, VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	leaf := func(va mem.VAddr) mem.PTE {
		t.Helper()
		pte, ok := as.PT.LeafPTE(va)
		if !ok {
			t.Fatalf("%#x not mapped", uint64(va))
		}
		return pte
	}
	read, tail := v.Start+mem.PageBytes2M, v.End-mem.PageBytes4K
	if _, err := as.Touch(read, false); err != nil {
		t.Fatal(err)
	}
	if pte := leaf(read); !pte.Huge() || !pte.Accessed() || pte.Dirty() {
		t.Fatalf("read fault leaf %#x: want huge, A, not D", uint64(pte))
	}
	if _, err := as.Touch(read+0x5000, true); err != nil {
		t.Fatal(err)
	}
	if !leaf(read).Dirty() {
		t.Fatal("write to a mapped THP did not set D")
	}
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	if pte := leaf(v.Start); !pte.Huge() || !pte.Accessed() || !pte.Dirty() {
		t.Fatalf("populated THP leaf %#x: want huge, A, D", uint64(pte))
	}
	if pte := leaf(tail); pte.Huge() || !pte.Accessed() || !pte.Dirty() {
		t.Fatalf("populated 4K tail leaf %#x: want 4K, A, D", uint64(pte))
	}
	if got, want := v.PopulatedPages(), 2+3; got != want {
		t.Fatalf("%d pages populated, want %d (two THPs and a 3-page tail)", got, want)
	}
	if as.Faults != 2+3 {
		t.Fatalf("Faults = %d, want 5", as.Faults)
	}
}

// TestPopulateRejectsUnlistedVMA: Populate faults straight into the VMA it
// is handed, so a VMA no longer in the list must be refused, not paged.
func TestPopulateRejectsUnlistedVMA(t *testing.T) {
	as := newAS(t, 4096, Config{})
	v, err := as.MMap(0x400000, 16*mem.PageBytes4K, VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.MUnmap(v); err != nil {
		t.Fatal(err)
	}
	free := as.Phys.FreeFrames()
	if err := as.Populate(v); !errors.Is(err, ErrNoSuchVMA) {
		t.Fatalf("Populate of an unmapped VMA: %v, want ErrNoSuchVMA", err)
	}
	if as.Phys.FreeFrames() != free {
		t.Fatal("Populate of an unmapped VMA allocated frames")
	}
}

// TestAddressSpaceFootprintTracksContents pins that a process's bookkeeping
// costs what it holds: booting an address space and demand-populating a
// 2 MiB heap (a handful of page-table nodes, 512 reverse-map entries) on a
// 128 MiB machine must not allocate storage sized by the machine's highest
// frame number or by a whole slab arena.
func TestAddressSpaceFootprintTracksContents(t *testing.T) {
	const budget = 256 << 10
	machine := phys.New(0, 128<<20/mem.PageBytes4K)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	as, err := NewAddressSpace(machine, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := as.MMap(1<<30, 2<<20, VMAHeap, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Populate(v); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("address space with a 2 MiB heap (%d page-table nodes) allocated %d KiB, budget %d KiB",
			as.Pool.NodeCount(), got>>10, budget>>10)
	}
}
