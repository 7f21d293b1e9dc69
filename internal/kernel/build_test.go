package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmt/internal/mem"
	"dmt/internal/pagetable"
	"dmt/internal/phys"
)

// populatePerPage is the reference Populate: the per-page demand-fault loop
// that region filling replaced. Every mapped leaf is skipped whole and every
// absent page takes its own fault through Touch.
func populatePerPage(as *AddressSpace, v *VMA) error {
	if as.indexOf(v) < 0 {
		return ErrNoSuchVMA
	}
	if as.cfg.THP {
		for va := mem.AlignUp(v.Start, mem.PageBytes2M); va+mem.PageBytes2M <= v.End; va += mem.PageBytes2M {
			if _, err := as.Touch(va, true); err != nil {
				return err
			}
		}
	}
	for va := v.Start; va < v.End; {
		if _, size, ok := as.PT.Lookup(va); ok {
			va = mem.AlignDown(va, size.Bytes()) + mem.VAddr(size.Bytes())
			continue
		}
		if _, err := as.Touch(va, true); err != nil {
			return err
		}
		va += mem.PageBytes4K
	}
	return nil
}

// slotHooks places every level-1 node at a fixed slot per 2 MiB region in
// storage outside the space's allocator, the way TEA placement does, and
// owns those frames; other levels fall back to the allocator.
type slotHooks struct{}

const slotBase = mem.PAddr(1) << 40

func (slotHooks) VMACreated(*VMA)                       {}
func (slotHooks) VMAResized(*VMA, mem.VAddr, mem.VAddr) {}
func (slotHooks) VMADeleted(*VMA)                       {}
func (slotHooks) PlaceNode(level int, va mem.VAddr) (mem.PAddr, bool) {
	if level != 1 {
		return 0, false
	}
	return slotBase + mem.PAddr(uint64(va)>>mem.PageShift2M<<mem.PageShift4K), true
}
func (slotHooks) OwnsNode(pa mem.PAddr) bool { return pa >= slotBase }

// populateCase builds one address space from rng: an allocator that may be
// fragmented or too small to finish, THP on or off, TEA-style node hooks or
// none, up to four VMAs with edges anywhere inside 2 MiB regions (adjacent
// ones sharing a region), pages already faulted, unmapped or split before
// Populate runs, and the order the VMAs are populated in. The same rng
// state always builds the same space.
func populateCase(rng *rand.Rand) (*AddressSpace, []*VMA, error) {
	frames := 16384
	if rng.Intn(3) == 0 {
		frames = 64 + rng.Intn(3000) // runs out, usually mid-region
	}
	pa := phys.New(0, frames)
	type pin struct {
		pa    mem.PAddr
		order int
	}
	var pins []pin
	for i := rng.Intn(40); i > 0; i-- {
		order := rng.Intn(4)
		if p, err := pa.Alloc(order, phys.KindUnmovable); err == nil {
			pins = append(pins, pin{p, order})
		}
	}
	as, err := NewAddressSpace(pa, Config{THP: rng.Intn(2) == 0})
	if err != nil {
		return nil, nil, err
	}
	if rng.Intn(2) == 0 {
		as.SetHooks(slotHooks{})
	}
	var vmas []*VMA
	next := mem.VAddr(1+rng.Intn(8)) << mem.PageShift2M
	for i := 1 + rng.Intn(4); i > 0; i-- {
		start := next + mem.VAddr(rng.Intn(3*512))<<mem.PageShift4K
		if rng.Intn(3) == 0 {
			start = next // adjacent to the previous VMA, maybe mid-region
		}
		pages := 1 + rng.Intn(3*512)
		if rng.Intn(4) == 0 {
			pages = 512 * (1 + rng.Intn(2))
		}
		v, err := as.MMap(start, uint64(pages)<<mem.PageShift4K, VMAHeap, fmt.Sprint("v", i))
		if err != nil {
			return nil, nil, err
		}
		vmas = append(vmas, v)
		next = v.End
	}
	// Free some pins to scatter the free lists.
	for i, p := range pins {
		if (i+rng.Intn(2))%2 == 0 {
			pa.Free(p.pa, p.order)
		}
	}
	// Partially populate: scattered faults, runs, unmaps and THP splits.
	for i := rng.Intn(60); i > 0; i-- {
		v := vmas[rng.Intn(len(vmas))]
		va := v.Start + mem.VAddr(rng.Intn(v.Pages()))<<mem.PageShift4K
		switch rng.Intn(5) {
		case 0, 1:
			_, _ = as.Touch(va, rng.Intn(2) == 0)
		case 2:
			for n := rng.Intn(40); n > 0 && va < v.End; n-- {
				_, _ = as.Touch(va, true)
				va += mem.PageBytes4K
			}
		case 3:
			_ = as.UnmapPage(v, va)
		case 4:
			_ = as.SplitHugePage(v, va)
		}
	}
	rng.Shuffle(len(vmas), func(i, j int) { vmas[i], vmas[j] = vmas[j], vmas[i] })
	return as, vmas, nil
}

// allocTrace drains a clone of pa with a fixed order pattern and returns
// the blocks it got: two allocators that hand out the same sequence have
// the same free lists, free-stack order included.
func allocTrace(pa *phys.Allocator) []mem.PAddr {
	c := pa.Clone()
	var out []mem.PAddr
	for i := 0; ; i++ {
		order := [...]int{0, 0, 3, 0, 9, 1, 0, 2}[i%8]
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

// diffSpaces compares everything Populate writes: allocator state and
// Stats, every page's walk (node addresses and leaf PTE), Mapped and the
// node count, each VMA's page states, the rmap and the fault counters.
func diffSpaces(a, b *AddressSpace, av, bv []*VMA) error {
	if a.Faults != b.Faults || a.THPMapped != b.THPMapped {
		return fmt.Errorf("Faults/THPMapped %d/%d vs %d/%d", a.Faults, a.THPMapped, b.Faults, b.THPMapped)
	}
	if a.PT.Mapped != b.PT.Mapped || a.Pool.NodeCount() != b.Pool.NodeCount() {
		return fmt.Errorf("Mapped %v nodes %d vs Mapped %v nodes %d", a.PT.Mapped, a.Pool.NodeCount(), b.PT.Mapped, b.Pool.NodeCount())
	}
	if a.Phys.Stats != b.Phys.Stats || a.Phys.FreeFrames() != b.Phys.FreeFrames() {
		return fmt.Errorf("phys Stats %+v free %d vs %+v free %d", a.Phys.Stats, a.Phys.FreeFrames(), b.Phys.Stats, b.Phys.FreeFrames())
	}
	if err := a.Phys.Audit(); err != nil {
		return err
	}
	for f := 0; f < a.Phys.TotalFrames(); f++ {
		p := mem.PAddr(f) << mem.PageShift4K
		if ka, kb := a.Phys.FrameKind(p), b.Phys.FrameKind(p); ka != kb {
			return fmt.Errorf("frame %#x kind %v vs %v", p, ka, kb)
		}
		va, oka := a.rmap.get(p)
		vb, okb := b.rmap.get(p)
		if va != vb || oka != okb {
			return fmt.Errorf("rmap[%#x] = %#x %v vs %#x %v", p, va, oka, vb, okb)
		}
	}
	ta, tb := allocTrace(a.Phys), allocTrace(b.Phys)
	if !slices.Equal(ta, tb) {
		return fmt.Errorf("allocation order after populate differs:\n%v\n%v", ta, tb)
	}
	var stepsA, stepsB [mem.Levels5]pagetable.Step
	for i, v := range av {
		w := bv[i]
		if v.PopulatedPages() != w.PopulatedPages() {
			return fmt.Errorf("%s: %d populated pages vs %d", v.Name, v.PopulatedPages(), w.PopulatedPages())
		}
		for va := mem.AlignDown(v.Start, mem.PageBytes2M); va < v.End+mem.PageBytes2M; va += mem.PageBytes4K {
			sa, oka := v.PresentSize(va)
			sb, okb := w.PresentSize(va)
			if sa != sb || oka != okb || v.ResidentAt(va) != w.ResidentAt(va) {
				return fmt.Errorf("%s: page %#x state %v %v vs %v %v", v.Name, va, sa, oka, sb, okb)
			}
			ra, rb := a.PT.WalkInto(va, stepsA[:0]), b.PT.WalkInto(va, stepsB[:0])
			if ra.PTE != rb.PTE || ra.PA != rb.PA || ra.Size != rb.Size || ra.OK != rb.OK || !slices.Equal(ra.Steps, rb.Steps) {
				return fmt.Errorf("walk %#x: %+v vs %+v", va, ra, rb)
			}
		}
	}
	return nil
}

// checkPopulateCase builds the case for seed twice, populates one copy with
// Populate and the other with the per-page reference, VMA by VMA, and
// requires the same errors and the same state after every VMA.
func checkPopulateCase(t *testing.T, seed int64) {
	t.Helper()
	a, av, errA := populateCase(rand.New(rand.NewSource(seed)))
	b, bv, errB := populateCase(rand.New(rand.NewSource(seed)))
	if errA != nil || errB != nil {
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("seed %d: case build diverged: %v vs %v", seed, errA, errB)
		}
		return
	}
	if err := diffSpaces(a, b, av, bv); err != nil {
		t.Fatalf("seed %d: sides differ before Populate: %v", seed, err)
	}
	for i := range av {
		errA, errB := a.Populate(av[i]), populatePerPage(b, bv[i])
		if fmt.Sprint(errA) != fmt.Sprint(errB) || errors.Is(errA, ErrOutOfMemory) != errors.Is(errB, ErrOutOfMemory) {
			t.Fatalf("seed %d: Populate(%s) = %v, per-page %v", seed, av[i].Name, errA, errB)
		}
		if err := diffSpaces(a, b, av, bv); err != nil {
			t.Fatalf("seed %d: after Populate(%s) (err %v): %v", seed, av[i].Name, errA, err)
		}
	}
}

func TestPopulateMatchesPerPage(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 50
	}
	ooms := 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		checkPopulateCase(t, seed)
		as, vmas, err := populateCase(rand.New(rand.NewSource(seed)))
		if err != nil {
			continue
		}
		for _, v := range vmas {
			if errors.Is(as.Populate(v), ErrOutOfMemory) {
				ooms++
				break
			}
		}
	}
	if ooms == 0 {
		t.Fatal("no case ran out of memory: the mid-region OOM path went untested")
	}
}

func FuzzPopulateMatchesPerPage(f *testing.F) {
	for _, seed := range []int64{0, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(checkPopulateCase)
}

// leafRecord is one visit of ForEachLeaf.
type leafRecord struct {
	va    mem.VAddr
	frame mem.PAddr
	size  mem.PageSize
}

// leavesPerPage is the reference ForEachLeaf: PresentPages of every VMA,
// each page looked up in the page table.
func leavesPerPage(as *AddressSpace) []leafRecord {
	var out []leafRecord
	for _, v := range as.VMAs() {
		for _, p := range v.PresentPages() {
			if pa, size, ok := as.PT.Lookup(p.VA); ok {
				out = append(out, leafRecord{p.VA, mem.AlignDownP(pa, size.Bytes()), size})
			}
		}
	}
	return out
}

// TestForEachLeafMatchesPresentPages drives ForEachLeaf over populated
// cases with huge leaves, split regions, holes, resident pages and drifted
// page state, and requires exactly the reference's visits in
// its order, and that an error from the callback stops the walk there.
func TestForEachLeafMatchesPresentPages(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		as, vmas, err := populateCase(rng)
		if err != nil {
			continue // the allocator could not hold the case
		}
		for _, v := range vmas {
			_ = as.Populate(v)
		}
		for i := rng.Intn(30); i > 0; i-- {
			v := vmas[rng.Intn(len(vmas))]
			va := v.Start + mem.VAddr(rng.Intn(v.Pages()))<<mem.PageShift4K
			switch rng.Intn(4) {
			case 0:
				_ = as.UnmapPage(v, va)
			case 1:
				_ = as.SplitHugePage(v, va)
			case 2:
				_ = as.MapResident(v, va, slotBase/2+mem.PAddr(i)<<mem.PageShift4K, mem.Size4K)
			case 3:
				// Drifted bookkeeping: a page recorded present with no
				// translation behind it (skipped), or inside a huge leaf
				// (visited with the leaf's frame and size).
				if _, ok := v.pageAt(va); !ok {
					v.setPresent(va, mem.Size4K, false)
				}
			}
		}
		want := leavesPerPage(as)
		var got []leafRecord
		err = as.ForEachLeaf(func(va mem.VAddr, frame mem.PAddr, size mem.PageSize) error {
			got = append(got, leafRecord{va, frame, size})
			return nil
		})
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("seed %d: ForEachLeaf = %v (err %v),\nreference %v", seed, got, err, want)
		}
		if len(want) == 0 {
			continue
		}
		stop := rng.Intn(len(want))
		errStop := errors.New("stop")
		n := 0
		err = as.ForEachLeaf(func(mem.VAddr, mem.PAddr, mem.PageSize) error {
			if n++; n == stop+1 {
				return errStop
			}
			return nil
		})
		if err != errStop || n != stop+1 {
			t.Fatalf("seed %d: stop at visit %d: err %v after %d visits", seed, stop+1, err, n)
		}
	}
}
