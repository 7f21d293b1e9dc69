package pagetable

import (
	"testing"

	"dmt/internal/mem"
)

// The arena-clone contract (DESIGN.md §9): Clone copies the slab arena, so
// the clone and its parent must share no mutable storage — mutating either
// side's tables (map, unmap, relocate) must never show through on the other,
// even though the copy is flat slab memcpys rather than a tree walk.

// snapshot captures everything a translation consumer can observe for a VA:
// the resolved PA and the exact PTE fetch addresses of a full walk.
type snapshot struct {
	pa    mem.PAddr
	ok    bool
	steps []Step
}

func snap(t *Table, va mem.VAddr) snapshot {
	r := t.Walk(va)
	s := snapshot{pa: r.PA, ok: r.OK}
	s.steps = append(s.steps, r.Steps...)
	return s
}

func requireSnap(t *testing.T, tbl *Table, va mem.VAddr, want snapshot, side string) {
	t.Helper()
	got := snap(tbl, va)
	if got.ok != want.ok || got.pa != want.pa {
		t.Fatalf("%s: walk(%#x) = (%#x, %v), want (%#x, %v)",
			side, uint64(va), uint64(got.pa), got.ok, uint64(want.pa), want.ok)
	}
	if len(got.steps) != len(want.steps) {
		t.Fatalf("%s: walk(%#x) took %d steps, want %d", side, uint64(va), len(got.steps), len(want.steps))
	}
	for i := range got.steps {
		if got.steps[i] != want.steps[i] {
			t.Fatalf("%s: walk(%#x) step %d = %+v, want %+v", side, uint64(va), i, got.steps[i], want.steps[i])
		}
	}
}

func TestCloneDoesNotAliasParentSlabs(t *testing.T) {
	parent := newTestTable(t)
	vas := []mem.VAddr{0x7f00_0000_0000, 0x7f00_0020_0000, 0x10_0000_0000}
	for i, va := range vas {
		if err := parent.Map(va, mem.PAddr(0x40_000000+i*0x1000), mem.Size4K, mem.PTEWritable); err != nil {
			t.Fatal(err)
		}
	}
	if err := parent.Map(0x7f10_0000_0000, 0x8000_0000, mem.Size2M, mem.PTEWritable); err != nil {
		t.Fatal(err)
	}
	huge := mem.VAddr(0x7f10_0000_0000)

	before := make(map[mem.VAddr]snapshot)
	for _, va := range append(vas, huge) {
		before[va] = snap(parent, va)
	}
	parentNodes := parent.Pool().NodeCount()

	clone := parent.Clone(BumpAlloc(0x8000000), nil)
	for _, va := range append(vas, huge) {
		requireSnap(t, clone, va, before[va], "fresh clone")
	}
	if got := clone.Pool().NodeCount(); got != parentNodes {
		t.Fatalf("clone NodeCount = %d, want %d", got, parentNodes)
	}

	// Mutate the clone every way a table can change: a new mapping (arena
	// slot allocation), an unmap that prunes nodes (slot release), a PTE
	// flag update, and a node relocation (index rewrite).
	if err := clone.Map(0x7f20_0000_0000, 0x50_000000, mem.Size4K, mem.PTEWritable); err != nil {
		t.Fatal(err)
	}
	if err := clone.Unmap(vas[2], mem.Size4K); err != nil {
		t.Fatal(err)
	}
	if !clone.SetAccessed(vas[0], true) {
		t.Fatal("SetAccessed missed a mapped leaf")
	}
	if err := clone.RelocateL1(vas[1], 0x9000000); err != nil {
		t.Fatal(err)
	}

	// The parent must be bit-identical to its pre-clone snapshots.
	for _, va := range append(vas, huge) {
		requireSnap(t, parent, va, before[va], "parent after clone mutation")
	}
	if got := parent.Pool().NodeCount(); got != parentNodes {
		t.Fatalf("parent NodeCount = %d after clone mutation, want %d", got, parentNodes)
	}
	if pte, ok := parent.LeafPTE(vas[0]); !ok || pte.Accessed() {
		t.Fatalf("parent leaf PTE for %#x picked up the clone's A-bit: %v %v", uint64(vas[0]), pte, ok)
	}
	if _, ok := parent.Pool().NodeAt(0x9000000); ok {
		t.Fatal("parent pool indexes the clone's relocated node")
	}

	// And the reverse: parent mutations must not leak into the clone.
	cloneSnap := make(map[mem.VAddr]snapshot)
	for _, va := range []mem.VAddr{vas[0], vas[1], huge, 0x7f20_0000_0000} {
		cloneSnap[va] = snap(clone, va)
	}
	if err := parent.Unmap(vas[0], mem.Size4K); err != nil {
		t.Fatal(err)
	}
	if err := parent.Map(0x7f30_0000_0000, 0x60_000000, mem.Size4K, mem.PTEWritable); err != nil {
		t.Fatal(err)
	}
	for va, want := range cloneSnap {
		requireSnap(t, clone, va, want, "clone after parent mutation")
	}
	if r := clone.Walk(0x7f30_0000_0000); r.OK {
		t.Fatal("parent's new mapping leaked into the clone")
	}
}

// TestCloneAfterChurnCopiesFreelist pins the slot-recycling half of the
// contract: a table that has unmapped (releasing arena slots) clones with
// the freelist intact, so parent and clone recycle independently and new
// nodes on one side never alias the other's arena.
func TestCloneAfterChurnCopiesFreelist(t *testing.T) {
	parent := newTestTable(t)
	for i := 0; i < 8; i++ {
		va := mem.VAddr(0x7f00_0000_0000 + uint64(i)<<30)
		if err := parent.Map(va, mem.PAddr(0x40_000000+i*0x1000), mem.Size4K, mem.PTEWritable); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		va := mem.VAddr(0x7f00_0000_0000 + uint64(i)<<30)
		if err := parent.Unmap(va, mem.Size4K); err != nil {
			t.Fatal(err)
		}
	}
	keep := mem.VAddr(0x7f00_0000_0000 + 5<<30)
	before := snap(parent, keep)

	clone := parent.Clone(BumpAlloc(0x8000000), nil)
	// Both sides refill the recycled slots independently.
	for i := 0; i < 4; i++ {
		va := mem.VAddr(0x7e00_0000_0000 + uint64(i)<<30)
		if err := clone.Map(va, mem.PAddr(0x70_000000+i*0x1000), mem.Size4K, mem.PTEWritable); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		va := mem.VAddr(0x7d00_0000_0000 + uint64(i)<<30)
		if err := parent.Map(va, mem.PAddr(0x50_000000+i*0x1000), mem.Size4K, mem.PTEWritable); err != nil {
			t.Fatal(err)
		}
	}
	requireSnap(t, parent, keep, before, "parent after churn refill")
	requireSnap(t, clone, keep, before, "clone after churn refill")
	if r := parent.Walk(0x7e00_0000_0000); r.OK {
		t.Fatal("clone's refill mapping leaked into the parent")
	}
	if r := clone.Walk(0x7d00_0000_0000); r.OK {
		t.Fatal("parent's refill mapping leaked into the clone")
	}
}

// TestCloneSharesNoStorage checks the storage itself rather than a few
// walks: no slab of the clone is a slab of its source, and once both sides
// release shared nodes and place new ones — in the same frame-index chunks
// as the shared nodes and above the index's map fallback — each side's tree
// and frame index agree with each other and with that side's history only.
func TestCloneSharesNoStorage(t *testing.T) {
	spread := func(base mem.PAddr) NodeAllocFunc {
		low, high := BumpAlloc(base), BumpAlloc(1<<40+base)
		n := 0
		return func(level int, va mem.VAddr) (mem.PAddr, error) {
			if n++; n%3 == 0 {
				return high(level, va)
			}
			return low(level, va)
		}
	}
	region := func(i int) mem.VAddr { return mem.VAddr(0x7f00_0000_0000 + uint64(i)<<21) }
	mapRange := func(tbl *Table, from, to int) {
		for i := from; i < to; i++ {
			if err := tbl.Map(region(i), mem.PAddr(i)<<12, mem.Size4K, mem.PTEWritable); err != nil {
				t.Fatal(err)
			}
		}
	}
	unmapRange := func(tbl *Table, from, to int) {
		for i := from; i < to; i++ {
			if err := tbl.Unmap(region(i), mem.Size4K); err != nil {
				t.Fatal(err)
			}
		}
	}

	parent, err := New(NewPool(), mem.Levels4, spread(0x100000), nil)
	if err != nil {
		t.Fatal(err)
	}
	mapRange(parent, 0, 40)
	shared := make([]mem.PAddr, 40) // level-1 node base of each shared region
	for i := range shared {
		shared[i] = parent.NodeForLevel(region(i), 1).Base
	}
	clone := parent.Clone(spread(0x180000), nil)

	parentSlabs := make(map[*[slabNodes]Node]bool)
	for _, s := range parent.pool.slabs {
		parentSlabs[s] = true
	}
	for i, s := range clone.pool.slabs {
		if parentSlabs[s] {
			t.Fatalf("clone slab %d is the parent's slab", i)
		}
	}

	unmapRange(clone, 0, 20)
	unmapRange(parent, 20, 40)
	mapRange(clone, 40, 80)
	mapRange(parent, 80, 120)

	check := func(tbl *Table, side string, mapped func(i int) bool) {
		t.Helper()
		l1 := 0
		for i := 0; i < 120; i++ {
			n := tbl.NodeForLevel(region(i), 1)
			if (n != nil) != mapped(i) {
				t.Fatalf("%s: region %d has level-1 node %v, want mapped=%v", side, i, n != nil, mapped(i))
			}
			if n != nil {
				l1++
				if got, ok := tbl.Pool().NodeAt(n.Base); !ok || got != n {
					t.Fatalf("%s: frame index disagrees with the tree at %#x", side, uint64(n.Base))
				}
			}
			if i < len(shared) {
				if _, ok := tbl.Pool().NodeAt(shared[i]); ok != mapped(i) {
					t.Fatalf("%s: shared node of region %d indexed=%v, want %v", side, i, ok, mapped(i))
				}
			}
		}
		// Root, level-3 and level-2 nodes are shared by every region.
		if got := tbl.Pool().NodeCount(); got != 3+l1 {
			t.Fatalf("%s: NodeCount = %d, tree holds %d", side, got, 3+l1)
		}
	}
	check(parent, "parent", func(i int) bool { return i < 20 || i >= 80 })
	check(clone, "clone", func(i int) bool { return i >= 20 && i < 80 })
}
