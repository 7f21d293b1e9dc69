package pagetable

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmt/internal/mem"
)

// This file checks Table — its last-leaf cache included — against a
// deliberately naive reference model: maps from (level, base VA) to node
// frame and from base VA to leaf, with every answer recomputed from those
// maps. A random stream drives both through Map/Unmap of all three page
// sizes, the cache-using probes (Lookup, LeafPTE, SetAccessed,
// RegionEmpty), FillRegion, RelocateNode, Maps whose node allocation
// fails, and Clone with both sides driven afterwards. After every operation a sweep that
// leaves the cache as the stream left it (Walk never consults the cache,
// RegionEmpty never fills it) compares every fetched PTE address, every
// leaf and every region with the model, and checks the cache is exact.

var errAllocFail = errors.New("test: node allocation failed")

// bumpNodes is the node placement used by both sides: frames handed out in
// order from next, failing exactly once after fail is armed.
type bumpNodes struct {
	next mem.PAddr
	fail bool
}

func (b *bumpNodes) alloc() (mem.PAddr, error) {
	if b.fail {
		b.fail = false
		return 0, errAllocFail
	}
	pa := b.next
	b.next += mem.PageBytes4K
	return pa, nil
}

// freeEvent is one call of a table's free callback.
type freeEvent struct {
	level int
	pa    mem.PAddr
}

type nodeKey struct {
	level int
	base  mem.VAddr
}

type refLeaf struct {
	size mem.PageSize
	pte  mem.PTE
}

// refTable is the reference model of one Table.
type refTable struct {
	levels int
	nodes  map[nodeKey]mem.PAddr // every live node, root included
	leaves map[mem.VAddr]refLeaf // keyed by leaf base VA
	bump   bumpNodes
	freed  []freeEvent
}

// entrySpan is the VA span one entry at level maps; a level-l node spans
// entrySpan(l+1).
func entrySpan(level int) uint64 { return uint64(1) << mem.LevelShift(level) }

func nodeOf(level int, va mem.VAddr) nodeKey {
	return nodeKey{level, mem.AlignDown(va, entrySpan(level+1))}
}

func newRefTable(levels int, base mem.PAddr) *refTable {
	m := &refTable{
		levels: levels,
		nodes:  map[nodeKey]mem.PAddr{},
		leaves: map[mem.VAddr]refLeaf{},
		bump:   bumpNodes{next: base},
	}
	root, _ := m.bump.alloc()
	m.nodes[nodeKey{levels, 0}] = root
	return m
}

func (m *refTable) clone() *refTable {
	c := &refTable{levels: m.levels, nodes: map[nodeKey]mem.PAddr{}, leaves: map[mem.VAddr]refLeaf{}, bump: m.bump}
	for k, v := range m.nodes {
		c.nodes[k] = v
	}
	for k, v := range m.leaves {
		c.leaves[k] = v
	}
	return c
}

// leafAt returns the leaf whose entry sits at level for va, if any.
func (m *refTable) leafAt(level int, va mem.VAddr) (refLeaf, bool) {
	l, ok := m.leaves[mem.AlignDown(va, entrySpan(level))]
	return l, ok && l.size.LeafLevel() == level
}

// find returns the leaf translating va.
func (m *refTable) find(va mem.VAddr) (mem.VAddr, refLeaf, bool) {
	for _, s := range []mem.PageSize{mem.Size4K, mem.Size2M, mem.Size1G} {
		base := mem.AlignDown(va, s.Bytes())
		if l, ok := m.leaves[base]; ok && l.size == s {
			return base, l, true
		}
	}
	return 0, refLeaf{}, false
}

func (m *refTable) Map(va mem.VAddr, pa mem.PAddr, size mem.PageSize, flags mem.PTE) error {
	if !mem.IsAligned(uint64(va), size.Bytes()) || !mem.IsAligned(uint64(pa), size.Bytes()) {
		return errors.New("unaligned")
	}
	leaf := size.LeafLevel()
	for level := m.levels; level > leaf; level-- {
		child := nodeOf(level-1, va)
		if _, ok := m.nodes[child]; ok {
			continue
		}
		if _, ok := m.leafAt(level, va); ok {
			return ErrAlreadyMapped
		}
		npa, err := m.bump.alloc()
		if err != nil {
			return err
		}
		m.nodes[child] = npa
	}
	if _, ok := m.nodes[nodeOf(leaf-1, va)]; ok && leaf > 1 {
		return ErrAlreadyMapped
	}
	if _, ok := m.leafAt(leaf, va); ok {
		return ErrAlreadyMapped
	}
	if leaf > 1 {
		flags |= mem.PTEHuge
	}
	m.leaves[va] = refLeaf{size, mem.MakePTE(pa, flags)}
	return nil
}

// FillRegion maps the absent pages of [va, end), clamped to va's 2 MiB
// region, when the region has a level-1 node: it lists the absent pages,
// asks alloc once for that many frames (not at all for none) and maps the
// pages the frames it got cover, in order.
func (m *refTable) FillRegion(va, end mem.VAddr, flags mem.PTE, alloc func(int) ([]mem.PAddr, error), mapped func(mem.VAddr, mem.PAddr)) (bool, error) {
	if _, ok := m.nodes[nodeOf(1, va)]; !ok {
		return false, nil
	}
	end = min(end, mem.AlignDown(va, mem.PageBytes2M)+mem.PageBytes2M)
	var absent []mem.VAddr
	for page := va; page < end; page += mem.PageBytes4K {
		if _, ok := m.leafAt(1, page); !ok {
			absent = append(absent, page)
		}
	}
	if len(absent) == 0 {
		return true, nil
	}
	frames, err := alloc(len(absent))
	for i, pa := range frames {
		m.leaves[absent[i]] = refLeaf{mem.Size4K, mem.MakePTE(pa, flags)}
		mapped(absent[i], pa)
	}
	return true, err
}

// live counts the entries of the node k: leaves and child nodes inside it.
func (m *refTable) live(k nodeKey) int {
	n := 0
	for base, l := range m.leaves {
		if l.size.LeafLevel() == k.level && nodeOf(k.level, base) == k {
			n++
		}
	}
	for c := range m.nodes {
		if c.level == k.level-1 && nodeOf(k.level, c.base) == k {
			n++
		}
	}
	return n
}

func (m *refTable) Unmap(va mem.VAddr, size mem.PageSize) error {
	leaf := size.LeafLevel()
	for level := m.levels; level > leaf; level-- {
		if _, ok := m.nodes[nodeOf(level-1, va)]; !ok {
			return ErrNotMapped
		}
	}
	base := mem.AlignDown(va, entrySpan(leaf))
	if l, ok := m.leaves[base]; !ok || l.size != size {
		return ErrNotMapped
	}
	delete(m.leaves, base)
	for level := leaf; level < m.levels; level++ {
		k := nodeOf(level, va)
		if m.live(k) > 0 {
			break
		}
		m.freed = append(m.freed, freeEvent{level, m.nodes[k]})
		delete(m.nodes, k)
	}
	return nil
}

func (m *refTable) RelocateNode(va mem.VAddr, level int, newBase mem.PAddr) error {
	if !mem.IsAligned(uint64(newBase), mem.PageBytes4K) || level < 1 || level >= m.levels {
		return errors.New("bad relocation")
	}
	for _, pa := range m.nodes {
		if pa == newBase {
			return errors.New("occupied")
		}
	}
	k := nodeOf(level, va)
	old, ok := m.nodes[k]
	if !ok {
		return ErrNotMapped
	}
	m.nodes[k] = newBase
	m.freed = append(m.freed, freeEvent{level, old})
	return nil
}

// walk predicts Table.Walk.
func (m *refTable) walk(va mem.VAddr) WalkResult {
	var r WalkResult
	for level := m.levels; ; level-- {
		idx := mem.Index(va, level)
		r.Steps = append(r.Steps, Step{Level: level, Addr: m.nodes[nodeOf(level, va)] + mem.PAddr(idx*mem.PTEBytes)})
		if _, ok := m.nodes[nodeOf(level-1, va)]; ok && level > 1 {
			continue
		}
		if l, ok := m.leafAt(level, va); ok {
			r.PTE, r.Size, r.OK = l.pte, l.size, true
			r.PA = l.pte.Frame() + mem.PAddr(mem.PageOffset(va, l.size))
		}
		return r
	}
}

// regionEmpty predicts Table.RegionEmpty.
func (m *refTable) regionEmpty(va mem.VAddr) bool {
	region := mem.AlignDown(va, mem.PageBytes2M)
	for base, l := range m.leaves {
		if end := base + mem.VAddr(l.size.Bytes()); base < region+mem.PageBytes2M && region < end {
			return false
		}
	}
	return true
}

// side is one table under test with its model.
type side struct {
	tbl   *Table
	bump  *bumpNodes
	freed *[]freeEvent
	ref   *refTable
}

func newSide(t *testing.T, levels int) *side {
	const base = 0x100000
	s := &side{bump: &bumpNodes{next: base}, freed: new([]freeEvent), ref: newRefTable(levels, base)}
	tbl, err := New(NewPool(), levels, s.allocFn(), s.freeFn())
	if err != nil {
		t.Fatal(err)
	}
	s.tbl = tbl
	return s
}

func (s *side) allocFn() NodeAllocFunc {
	return func(int, mem.VAddr) (mem.PAddr, error) { return s.bump.alloc() }
}

func (s *side) freeFn() NodeFreeFunc {
	return func(level int, pa mem.PAddr) { *s.freed = append(*s.freed, freeEvent{level, pa}) }
}

func (s *side) clone() *side {
	bump := *s.bump
	c := &side{bump: &bump, freed: new([]freeEvent), ref: s.ref.clone()}
	c.tbl = s.tbl.Clone(c.allocFn(), c.freeFn())
	return c
}

// errClass buckets an error for comparison: the sentinels by identity,
// anything else as one class.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrNotMapped):
		return "not mapped"
	case errors.Is(err, ErrAlreadyMapped):
		return "already mapped"
	case errors.Is(err, errAllocFail):
		return "alloc failed"
	}
	return "rejected"
}

// modelVA decodes one byte into one of 128 VAs: 4 pages in each of eight
// 2 MiB regions of four 1 GiB regions, two of them under a second level-4
// entry, so regions share and split upper nodes, and fill and empty often.
func modelVA(b byte) mem.VAddr {
	g := uint64(b>>5) & 3
	return mem.VAddr((g&1)<<30 | (g>>1)<<39 | uint64(b>>2&7)<<21 | uint64(b&3)<<12)
}

var modelSizes = [3]mem.PageSize{mem.Size4K, mem.Size2M, mem.Size1G}

// runTableModel decodes data into operations, three bytes each, and checks
// the tables against their models after every one.
func runTableModel(t *testing.T, data []byte) {
	levels := mem.Levels4
	if len(data) > 0 && data[0]&1 == 1 {
		levels = mem.Levels5
	}
	sides := []*side{newSide(t, levels)}
	nextFresh := mem.PAddr(1) << 40 // relocation targets beyond the dense index
	for i := 0; i+3 <= len(data); i += 3 {
		s := sides[int(data[i]>>4)%len(sides)]
		va, arg := modelVA(data[i+1]), data[i+2]
		size := modelSizes[int(arg)%3]
		var op string
		switch data[i] % 12 {
		case 0, 1, 2: // Map, mostly 4K so regions fill page by page
			if data[i]%12 != 0 {
				size = mem.Size4K
			}
			va = mem.AlignDown(va, size.Bytes())
			pa := mem.PAddr(uint64(arg)+1) << 30
			flags := mem.PTE(arg>>7) * mem.PTEWritable
			op = fmt.Sprintf("Map(%#x, %v)", uint64(va), size)
			got, want := s.tbl.Map(va, pa, size, flags), s.ref.Map(va, pa, size, flags)
			if errClass(got) != errClass(want) {
				t.Fatalf("%s = %v, model %v", op, got, want)
			}
		case 3, 4: // Unmap, mostly 4K
			if data[i]%12 != 3 {
				size = mem.Size4K
			}
			va = mem.AlignDown(va, size.Bytes())
			op = fmt.Sprintf("Unmap(%#x, %v)", uint64(va), size)
			if got, want := s.tbl.Unmap(va, size), s.ref.Unmap(va, size); errClass(got) != errClass(want) {
				t.Fatalf("%s = %v, model %v", op, got, want)
			}
		case 5: // Lookup, at an offset inside the page
			va += mem.VAddr(arg) * 16
			op = fmt.Sprintf("Lookup(%#x)", uint64(va))
			pa, sz, ok := s.tbl.Lookup(va)
			_, l, want := s.ref.find(va)
			if ok != want || ok && (sz != l.size || pa != l.pte.Frame()+mem.PAddr(mem.PageOffset(va, l.size))) {
				t.Fatalf("%s = %#x, %v, %v; model leaf %+v, %v", op, uint64(pa), sz, ok, l, want)
			}
		case 6: // LeafPTE
			op = fmt.Sprintf("LeafPTE(%#x)", uint64(va))
			pte, ok := s.tbl.LeafPTE(va)
			_, l, want := s.ref.find(va)
			if ok != want || pte != l.pte {
				t.Fatalf("%s = %#x, %v; model %#x, %v", op, uint64(pte), ok, uint64(l.pte), want)
			}
		case 7: // SetAccessed
			write := arg&1 == 1
			op = fmt.Sprintf("SetAccessed(%#x, %v)", uint64(va), write)
			base, l, want := s.ref.find(va)
			if want {
				l.pte = l.pte.WithAccessed(write)
				s.ref.leaves[base] = l
			}
			if got := s.tbl.SetAccessed(va, write); got != want {
				t.Fatalf("%s = %v, model %v", op, got, want)
			}
		case 8: // RegionEmpty
			op = fmt.Sprintf("RegionEmpty(%#x)", uint64(va))
			if got, want := s.tbl.RegionEmpty(va), s.ref.regionEmpty(va); got != want {
				t.Fatalf("%s = %v, model %v", op, got, want)
			}
		case 9: // RelocateNode, to a fresh frame or (high bit) an occupied one
			level := 1 + int(arg&0x7f)%levels // level == levels is rejected
			target := nextFresh
			if arg&0x80 != 0 {
				target = s.ref.nodes[nodeKey{levels, 0}]
			} else {
				nextFresh += mem.PageBytes4K
			}
			op = fmt.Sprintf("RelocateNode(%#x, %d, %#x)", uint64(va), level, uint64(target))
			got, want := s.tbl.RelocateNode(va, level, target), s.ref.RelocateNode(va, level, target)
			if errClass(got) != errClass(want) {
				t.Fatalf("%s = %v, model %v", op, got, want)
			}
		case 11: // FillRegion of up to 15 pages from a model VA or near its region's end
			if arg&0x20 != 0 {
				va += 504 * mem.PageBytes4K
			}
			end := va + mem.VAddr(arg%16)*mem.PageBytes4K
			flags := mem.PTE(arg&1) * mem.PTEWritable
			short := int(arg>>6) * 4 // 0: a full batch; else at most short-1 frames
			op = fmt.Sprintf("FillRegion(%#x, %#x)", uint64(va), uint64(end))
			// alloc hands out frames unique to this op and, when short
			// is set and the request reaches it, stops one frame before
			// it with an error. Both sides must make the same requests
			// and report the same writes.
			type fillLog struct {
				asked  []int
				mapped []mem.VAddr
			}
			fill := func(log *fillLog) (func(int) ([]mem.PAddr, error), func(mem.VAddr, mem.PAddr)) {
				alloc := func(n int) ([]mem.PAddr, error) {
					log.asked = append(log.asked, n)
					var err error
					if short > 0 && n >= short {
						n, err = short-1, errAllocFail
					}
					frames := make([]mem.PAddr, n)
					for j := range frames {
						frames[j] = mem.PAddr(uint64(i)<<9|uint64(j)+1) << mem.PageShift4K
					}
					return frames, err
				}
				mapped := func(page mem.VAddr, pa mem.PAddr) {
					if pa != mem.PAddr(uint64(i)<<9|uint64(len(log.mapped))+1)<<mem.PageShift4K {
						t.Fatalf("op %d: page %#x written with frame %#x out of order", i/3, uint64(page), uint64(pa))
					}
					log.mapped = append(log.mapped, page)
				}
				return alloc, mapped
			}
			var got, want fillLog
			gotAlloc, gotMapped := fill(&got)
			wantAlloc, wantMapped := fill(&want)
			gotOK, gotErr := s.tbl.FillRegion(va, end, flags, gotAlloc, gotMapped)
			wantOK, wantErr := s.ref.FillRegion(va, end, flags, wantAlloc, wantMapped)
			if gotOK != wantOK || errClass(gotErr) != errClass(wantErr) || !slices.Equal(got.asked, want.asked) || !slices.Equal(got.mapped, want.mapped) {
				t.Fatalf("%s = %v, %v after requests %v writing %v; model %v, %v after %v writing %v",
					op, gotOK, gotErr, got.asked, got.mapped, wantOK, wantErr, want.asked, want.mapped)
			}
		case 10: // arm a node-allocation failure, or (high bit) clone
			if arg&0x80 != 0 && len(sides) < 3 {
				op = "Clone"
				sides = append(sides, s.clone())
			} else {
				op = "fail next node allocation"
				s.bump.fail, s.ref.bump.fail = true, true
			}
		}
		for j, s := range sides {
			checkSide(t, fmt.Sprintf("op %d %s, side %d", i/3, op, j), s)
		}
	}
}

// checkSide compares a table with its model through reads that leave the
// cache as they found it.
func checkSide(t *testing.T, where string, s *side) {
	t.Helper()
	if got, want := s.tbl.Pool().NodeCount(), len(s.ref.nodes); got != want {
		t.Fatalf("%s: %d nodes, model %d", where, got, want)
	}
	var mapped [3]int
	for _, l := range s.ref.leaves {
		mapped[l.size]++
	}
	if s.tbl.Mapped != mapped {
		t.Fatalf("%s: Mapped %v, model %v", where, s.tbl.Mapped, mapped)
	}
	// The cache is exact: an entry names the node a root descent reaches.
	// (A stale entry can still answer correctly until its slot is reused,
	// so the stream alone finds that bug only by luck.)
	if s.tbl.leaf != 0 && s.tbl.NodeForLevel(s.tbl.leafVA, 1) != s.tbl.pool.node(s.tbl.leaf) {
		t.Fatalf("%s: leaf cache names node %d for region %#x, not the one a descent reaches", where, s.tbl.leaf, uint64(s.tbl.leafVA))
	}
	if !slices.Equal(*s.freed, s.ref.freed) {
		t.Fatalf("%s: freed %v, model %v", where, *s.freed, s.ref.freed)
	}
	for b := 0; b < 128; b++ {
		va := modelVA(byte(b)) + 0x10
		got, want := s.tbl.Walk(va), s.ref.walk(va)
		if !slices.Equal(got.Steps, want.Steps) || got.PTE != want.PTE || got.PA != want.PA || got.Size != want.Size || got.OK != want.OK {
			t.Fatalf("%s: Walk(%#x) = %+v, model %+v", where, uint64(va), got, want)
		}
		// RegionEmpty reads the cache but never fills it.
		if got, want := s.tbl.RegionEmpty(va), s.ref.regionEmpty(va); got != want {
			t.Fatalf("%s: RegionEmpty(%#x) = %v, model %v", where, uint64(va), got, want)
		}
	}
}

// TestTableMatchesReferenceModel runs long random streams through the
// differential check.
func TestTableMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		data := make([]byte, 3*600)
		rand.New(rand.NewSource(seed)).Read(data)
		runTableModel(t, data)
	}
}

// TestLeafCacheSurvivesSlotReuse pins the stale-cache hazard directly:
// the only 4K leaf of a region is unmapped, releasing its level-1 node (the
// cached one) while a neighbouring region keeps the level-2 node alive; a
// 2M map in the next 1 GiB then recycles that arena slot as a level-2 node
// without descending to level 1, and a Lookup back in the first region
// must still miss.
func TestLeafCacheSurvivesSlotReuse(t *testing.T) {
	tbl := newTestTable(t)
	a, b := mem.VAddr(0x4000_0000), mem.VAddr(0x8000_0000)
	for _, va := range []mem.VAddr{a, a + mem.PageBytes2M} {
		if err := tbl.Map(va, 0x9000, mem.Size4K, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := tbl.Lookup(a); !ok {
		t.Fatal("mapped page missing")
	}
	if err := tbl.Unmap(a, mem.Size4K); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(b, 0x20_0000, mem.Size2M, 0); err != nil {
		t.Fatal(err)
	}
	if pa, _, ok := tbl.Lookup(a); ok {
		t.Fatalf("Lookup of unmapped %#x hit %#x through a stale leaf cache", uint64(a), uint64(pa))
	}
	if !tbl.RegionEmpty(a) {
		t.Fatal("RegionEmpty false for an emptied region")
	}
}

// FuzzTableLeafCache is the differential check over fuzzer-chosen streams.
func FuzzTableLeafCache(f *testing.F) {
	f.Add([]byte{0, 0x08, 1, 5, 0x08, 0, 3, 0x08, 0, 1, 0x80, 3, 5, 0x08, 0})
	f.Add([]byte{1, 0x21, 0, 10, 0x21, 0x80, 0x11, 0x22, 0, 3, 0x21, 0, 0x18, 0x21, 0})
	f.Add([]byte{0, 0x10, 3, 10, 0, 0, 1, 0x18, 0, 9, 0x18, 1, 8, 0x18, 0, 7, 0x18, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*400 {
			data = data[:3*400]
		}
		runTableModel(t, data)
	})
}
