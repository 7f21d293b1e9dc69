// Package pagetable implements x86-64-style radix page tables with
// physically-placed nodes, the foundation both for the legacy sequential
// walker (Figure 1) and for DMT's direct fetch.
//
// Every page-table node occupies a real (simulated) physical frame, so each
// PTE has a concrete physical address: the legacy walker's per-level fetches
// and the DMT fetcher's arithmetically-computed fetch hit the *same* PTE
// words, which is the paper's no-copy property (§3) — no extra coherence or
// TLB shootdowns are needed because there is only one copy of each PTE.
//
// Node placement is pluggable: the default policy takes frames from the
// buddy allocator (scattering last-level nodes the way vanilla Linux does),
// while the TEA-aware policy used by DMT-Linux places each last-level node
// at its designated slot inside a TEA (§4.3).
package pagetable

import (
	"errors"
	"fmt"

	"dmt/internal/mem"
)

// ErrNotMapped is returned by Walk for an absent translation.
var ErrNotMapped = errors.New("pagetable: not mapped")

// ErrAlreadyMapped is returned by Map when a conflicting entry exists.
var ErrAlreadyMapped = errors.New("pagetable: already mapped")

// NodeAllocFunc decides the physical placement of a new page-table node for
// the given level and the virtual address being mapped.
type NodeAllocFunc func(level int, va mem.VAddr) (mem.PAddr, error)

// NodeFreeFunc releases a node frame when its last entry is cleared.
type NodeFreeFunc func(level int, pa mem.PAddr)

// nodeID addresses a Node inside its Pool's slab arena: 0 is the null
// reference, id−1 is the global slot index (slab = slot>>slabShift, offset =
// slot&slabMask). IDs — not pointers — are what nodes store for their
// children, which is what lets Clone copy a table as flat slab memcpys with
// no pointer rewriting, and makes the simulated walk index-chasing over
// contiguous slabs instead of pointer-chasing the heap.
type nodeID int32

const (
	slabShift = 4
	slabNodes = 1 << slabShift // nodes per slab (~99 KiB of arena each)
	slabMask  = slabNodes - 1
)

// Node is one 4 KiB page-table page (512 entries). Nodes live in their
// Pool's slab arena; child references are nodeIDs into the same arena.
type Node struct {
	Level    int
	Base     mem.PAddr
	entries  [mem.EntriesPerNode]mem.PTE
	children [mem.EntriesPerNode]nodeID
	live     int
}

// Entry returns the PTE at idx.
func (n *Node) Entry(idx int) mem.PTE { return n.entries[idx] }

// EntryAddr returns the physical address of the PTE at idx.
func (n *Node) EntryAddr(idx int) mem.PAddr {
	return n.Base + mem.PAddr(idx*mem.PTEBytes)
}

// Pool owns the slab arena holding one address space's page-table nodes and
// indexes them by their base frame, giving physical-address PTE reads to
// components (the DMT fetcher) that compute PTE locations arithmetically
// rather than walking.
//
// Storage is arena-backed: nodes live in small fixed-size slabs and are
// addressed by nodeID, so node creation is a slot bump (no per-node heap
// allocation), the arena grows with the nodes the table holds, and Clone is
// a flat copy of the slabs. Slabs are never moved or resized, so *Node
// pointers handed out (NodeAt, NodeForLevel) stay valid for the Pool's
// lifetime. Released slots are zeroed and recycled through a freelist,
// bounding arena growth under map/unmap churn.
//
// The frame index is a chunked mem.FrameIndex rather than a map: NodeAt
// sits on the walk hot path (every DMT fetch reads a PTE through it).
type Pool struct {
	slabs []*[slabNodes]Node // fixed-size slabs, never moved
	used  int                // slots ever handed out (arena high-water mark)
	free  []nodeID           // recycled slots, zeroed on release
	index mem.FrameIndex[nodeID]
}

// NewPool creates an empty node pool.
func NewPool() *Pool { return &Pool{} }

// node resolves a non-null nodeID to its slab slot.
func (p *Pool) node(id nodeID) *Node {
	slot := int(id) - 1
	return &p.slabs[slot>>slabShift][slot&slabMask]
}

// allocSlot hands out an arena slot: a recycled one when available (already
// zeroed by release), else the next slot of the last slab, growing the
// arena by one slab when full. Appending to slabs never moves existing slab
// backing arrays, so outstanding *Node pointers stay valid.
func (p *Pool) allocSlot() nodeID {
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		return id
	}
	if p.used>>slabShift == len(p.slabs) {
		p.slabs = append(p.slabs, new([slabNodes]Node))
	}
	p.used++
	return nodeID(p.used)
}

// release returns a node's slot to the freelist, zeroed so the next
// allocation (and every slab copy a Clone takes) starts from a blank node.
func (p *Pool) release(id nodeID) {
	n := p.node(id)
	p.unindex(n.Base)
	*n = Node{}
	p.free = append(p.free, id)
}

// NodeAt returns the node based at the frame containing pa.
func (p *Pool) NodeAt(pa mem.PAddr) (*Node, bool) {
	if id, ok := p.idAt(pa); ok {
		return p.node(id), true
	}
	return nil, false
}

// idAt is NodeAt at the nodeID level.
func (p *Pool) idAt(pa mem.PAddr) (nodeID, bool) {
	id := p.index.Get(uint64(pa) >> mem.PageShift4K)
	return id, id != 0
}

func (p *Pool) put(base mem.PAddr, id nodeID) {
	p.index.Set(uint64(base)>>mem.PageShift4K, id)
}

// unindex drops the frame-index entry for base without touching the node's
// arena slot — the index half of a release, and all a relocation needs.
func (p *Pool) unindex(base mem.PAddr) {
	p.index.Set(uint64(base)>>mem.PageShift4K, 0)
}

// ReadPTE reads the PTE word stored at physical address pa, which must lie
// inside a registered page-table node. The second result reports whether a
// node covers pa — a miss models the machine consuming arbitrary memory as
// a PTE, which the isolation checks of §4.5.2 are designed to prevent.
func (p *Pool) ReadPTE(pa mem.PAddr) (mem.PTE, bool) {
	id, ok := p.idAt(pa)
	if !ok {
		return 0, false
	}
	// The node is based at pa's frame, so the offset needs no n.Base load.
	return p.node(id).entries[pa%mem.PageBytes4K/mem.PTEBytes], true
}

// NodeCount returns the number of live page-table nodes (×4 KiB gives the
// page-table memory footprint reported in §6.3).
func (p *Pool) NodeCount() int { return p.index.Len() }

// CountNodes returns how many live nodes satisfy pred (e.g. how many are
// placed inside TEAs, for the §6.3 memory-overhead accounting).
func (p *Pool) CountNodes(pred func(*Node) bool) int {
	n := 0
	p.index.Range(func(_ uint64, id nodeID) {
		if pred(p.node(id)) {
			n++
		}
	})
	return n
}

// Table is one radix page table (4- or 5-level). Each Table owns its Pool
// exclusively (the arena Clone copies the whole pool, so sharing one pool
// between tables would clone strangers' nodes too).
type Table struct {
	pool   *Pool
	levels int
	root   nodeID
	alloc  NodeAllocFunc
	free   NodeFreeFunc

	// leaf caches the level-1 node of the 2 MiB region based at leafVA,
	// the last one Map, FillRegion or leafSlot descended into, so demand
	// paging a region page by page descends from the root once (0 = empty). A
	// level-1 node stays linked under its region until Unmap releases it,
	// and no huge leaf can be installed over a linked node, so the entry
	// is exact until Unmap releases any node; that clears it. Node IDs
	// survive RelocateNode.
	leafVA mem.VAddr
	leaf   nodeID

	// Mapped counts live leaf entries per page size.
	Mapped [3]int
}

// New creates a table with the given depth (mem.Levels4 or mem.Levels5).
// The root node is allocated immediately.
func New(pool *Pool, levels int, alloc NodeAllocFunc, free NodeFreeFunc) (*Table, error) {
	if levels != mem.Levels4 && levels != mem.Levels5 {
		return nil, fmt.Errorf("pagetable: unsupported depth %d", levels)
	}
	t := &Table{pool: pool, levels: levels, alloc: alloc, free: free}
	root, err := t.newNode(levels, 0)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

// Levels returns the table depth.
func (t *Table) Levels() int { return t.levels }

// RootPA returns the physical address of the root node (the CR3 analogue).
func (t *Table) RootPA() mem.PAddr { return t.pool.node(t.root).Base }

// Pool returns the node pool backing this table.
func (t *Table) Pool() *Pool { return t.pool }

func (t *Table) newNode(level int, va mem.VAddr) (nodeID, error) {
	pa, err := t.alloc(level, va)
	if err != nil {
		return 0, err
	}
	if !mem.IsAligned(uint64(pa), mem.PageBytes4K) {
		return 0, fmt.Errorf("pagetable: node placement %#x unaligned", uint64(pa))
	}
	if _, exists := t.pool.idAt(pa); exists {
		return 0, fmt.Errorf("pagetable: node placement %#x already in use", uint64(pa))
	}
	id := t.pool.allocSlot()
	n := t.pool.node(id)
	n.Level, n.Base = level, pa
	t.pool.put(pa, id)
	return id, nil
}

// Map installs a translation va→pa of the given page size. Intermediate
// nodes are created as needed; va and pa must be size-aligned.
func (t *Table) Map(va mem.VAddr, pa mem.PAddr, size mem.PageSize, flags mem.PTE) error {
	if !mem.IsAligned(uint64(va), size.Bytes()) || !mem.IsAligned(uint64(pa), size.Bytes()) {
		return fmt.Errorf("pagetable: unaligned %v mapping va=%#x pa=%#x", size, uint64(va), uint64(pa))
	}
	leaf := size.LeafLevel()
	node, level := t.descentStart(va, leaf)
	for ; level > leaf; level-- {
		idx := mem.Index(va, level)
		child := node.children[idx]
		if child == 0 {
			if node.entries[idx].Present() {
				return ErrAlreadyMapped // huge leaf blocks this subtree
			}
			var err error
			child, err = t.newNode(level-1, va)
			if err != nil {
				return err
			}
			node.children[idx] = child
			node.entries[idx] = mem.MakePTE(t.pool.node(child).Base, 0)
			node.live++
		}
		if level == 2 {
			t.leafVA, t.leaf = regionOf(va), child
		}
		node = t.pool.node(child)
	}
	idx := mem.Index(va, leaf)
	if node.entries[idx].Present() {
		return ErrAlreadyMapped
	}
	if leaf > 1 {
		flags |= mem.PTEHuge
	}
	node.entries[idx] = mem.MakePTE(pa, flags)
	node.live++
	t.Mapped[size]++
	return nil
}

// Unmap removes the translation of va with the given page size. Emptied
// intermediate nodes are released (except the root).
func (t *Table) Unmap(va mem.VAddr, size mem.PageSize) error {
	leaf := size.LeafLevel()
	var path [mem.Levels5]*Node
	node := t.pool.node(t.root)
	for level := t.levels; level > leaf; level-- {
		path[level-1] = node
		id := node.children[mem.Index(va, level)]
		if id == 0 {
			return ErrNotMapped
		}
		node = t.pool.node(id)
	}
	idx := mem.Index(va, leaf)
	if pte := node.entries[idx]; !pte.Present() || (leaf > 1 && !pte.Huge()) {
		// Absent, or a pointer to a lower node rather than a huge leaf:
		// clearing it would orphan that subtree.
		return ErrNotMapped
	}
	node.entries[idx] = 0
	node.live--
	t.Mapped[size]--
	// Prune empty nodes bottom-up, recycling each freed node's arena slot.
	for level := leaf; level < t.levels && node.live == 0; level++ {
		parent := path[level]
		pidx := mem.Index(va, level+1)
		id := parent.children[pidx]
		parent.children[pidx] = 0
		parent.entries[pidx] = 0
		parent.live--
		freedLevel, freedBase := node.Level, node.Base
		t.pool.release(id)
		t.leaf = 0
		if t.free != nil {
			t.free(freedLevel, freedBase)
		}
		node = parent
	}
	return nil
}

// Step records one PTE fetch of a sequential walk.
type Step struct {
	Level int
	Addr  mem.PAddr
}

// WalkResult describes a completed (or faulted) walk.
type WalkResult struct {
	Steps []Step
	PTE   mem.PTE
	PA    mem.PAddr
	Size  mem.PageSize
	OK    bool
}

// Walk performs a full sequential walk from the root (Figure 1), recording
// the physical address of every PTE fetched.
func (t *Table) Walk(va mem.VAddr) WalkResult {
	return t.WalkFrom(t.pool.node(t.root), t.levels, va, make([]Step, 0, t.levels))
}

// WalkInto is Walk with a caller-provided step buffer (pass steps[:0] of a
// per-walker scratch slice), keeping the walk hot path allocation-free.
func (t *Table) WalkInto(va mem.VAddr, steps []Step) WalkResult {
	return t.WalkFrom(t.pool.node(t.root), t.levels, va, steps)
}

// WalkFrom resumes a walk at the given node and level — this is how a
// page-walk-cache hit skips upper levels.
func (t *Table) WalkFrom(node *Node, level int, va mem.VAddr, steps []Step) WalkResult {
	pool := t.pool
	for {
		idx := mem.Index(va, level)
		steps = append(steps, Step{Level: level, Addr: node.EntryAddr(idx)})
		pte := node.entries[idx]
		if !pte.Present() {
			return WalkResult{Steps: steps}
		}
		if level == 1 || pte.Huge() {
			size := mem.PageSize(level - 1)
			return WalkResult{
				Steps: steps,
				PTE:   pte,
				PA:    pte.Frame() + mem.PAddr(mem.PageOffset(va, size)),
				Size:  size,
				OK:    true,
			}
		}
		node = pool.node(node.children[idx])
		level--
	}
}

// NodeForLevel returns the node that a walk for va reaches at the given
// level, or nil when absent; used to service PWC refills.
func (t *Table) NodeForLevel(va mem.VAddr, level int) *Node {
	node := t.pool.node(t.root)
	for l := t.levels; l > level; l-- {
		id := node.children[mem.Index(va, l)]
		if id == 0 {
			return nil
		}
		node = t.pool.node(id)
	}
	return node
}

// Lookup resolves va without recording steps (OS-side helper; also the
// checker's reference translation, so it must not allocate).
func (t *Table) Lookup(va mem.VAddr) (mem.PAddr, mem.PageSize, bool) {
	node, idx, ok := t.leafSlot(va)
	if !ok {
		return 0, 0, false
	}
	size := mem.PageSize(node.Level - 1)
	return node.entries[idx].Frame() + mem.PAddr(mem.PageOffset(va, size)), size, true
}

// RegionEmpty reports whether no leaf maps any address of va's 2 MiB
// region: no huge leaf covers it, and its level-1 node is absent or holds
// no entry. It is one descent where probing the region page by page would
// be 512.
func (t *Table) RegionEmpty(va mem.VAddr) bool {
	node, level := t.descentStart(va, 1)
	for ; level > 1; level-- {
		idx := mem.Index(va, level)
		pte := node.entries[idx]
		if !pte.Present() {
			return true
		}
		if pte.Huge() {
			return false
		}
		node = t.pool.node(node.children[idx])
	}
	return node.live == 0
}

// FillRegion maps 4 KiB leaves over the absent pages of [va, end), clamped
// to va's 2 MiB region, in one pass over the region's level-1 node. It asks
// alloc once for exactly as many 4 KiB-aligned frames as there are absent
// entries (not at all when there are none), writes them to those pages in
// ascending order and reports each write to mapped. When alloc returns
// fewer frames with an error, the pages it covered are written and the
// error is returned; present entries are never touched.
// Every write is the one Map would make: the node is linked, so Map would
// place no node, and no huge leaf can cover the region. It calls nothing,
// writes nothing and reports false when no level-1 node is linked under the
// region (the range is unmapped or a huge leaf covers it); the caller then
// maps through Map, which places nodes.
func (t *Table) FillRegion(va, end mem.VAddr, flags mem.PTE, alloc func(n int) ([]mem.PAddr, error), mapped func(page mem.VAddr, pa mem.PAddr)) (bool, error) {
	node, level := t.descentStart(va, 1)
	for ; level > 1; level-- {
		idx := mem.Index(va, level)
		if pte := node.entries[idx]; !pte.Present() || pte.Huge() {
			return false, nil
		}
		child := node.children[idx]
		if level == 2 {
			t.leafVA, t.leaf = regionOf(va), child
		}
		node = t.pool.node(child)
	}
	end = min(end, regionOf(va)+mem.PageBytes2M)
	lo, hi := mem.Index(va, 1), mem.Index(va, 1)
	if end > va {
		hi += int((end - va + mem.PageBytes4K - 1) >> mem.PageShift4K)
	}
	absent := 0
	for _, pte := range node.entries[lo:hi] {
		if !pte.Present() {
			absent++
		}
	}
	if absent == 0 {
		return true, nil
	}
	frames, err := alloc(absent)
	page := va
	for idx := lo; idx < hi && len(frames) > 0; idx++ {
		if !node.entries[idx].Present() {
			node.entries[idx] = mem.MakePTE(frames[0], flags)
			node.live++
			t.Mapped[mem.Size4K]++
			mapped(page, frames[0])
			frames = frames[1:]
		}
		page += mem.PageBytes4K
	}
	return true, err
}

// SetAccessed sets the A (and optionally D) bit on the leaf PTE mapping va,
// modelling the hardware walker's A/D updates. It reports whether a leaf
// was found.
func (t *Table) SetAccessed(va mem.VAddr, write bool) bool {
	node, idx, ok := t.leafSlot(va)
	if !ok {
		return false
	}
	node.entries[idx] = node.entries[idx].WithAccessed(write)
	return true
}

// leafSlot returns the node and index of the leaf PTE mapping va.
func (t *Table) leafSlot(va mem.VAddr) (*Node, int, bool) {
	node, level := t.descentStart(va, 1)
	for ; ; level-- {
		idx := mem.Index(va, level)
		pte := node.entries[idx]
		if !pte.Present() {
			return nil, 0, false
		}
		if level == 1 || pte.Huge() {
			return node, idx, true
		}
		child := node.children[idx]
		if level == 2 {
			t.leafVA, t.leaf = regionOf(va), child
		}
		node = t.pool.node(child)
	}
}

// descentStart returns the node and level at which a descent for va that
// stops at level stop begins: the cached level-1 node when va lies in its
// region and the descent goes down to level 1, else the root.
func (t *Table) descentStart(va mem.VAddr, stop int) (*Node, int) {
	if stop == 1 && t.leaf != 0 && t.leafVA == regionOf(va) {
		return t.pool.node(t.leaf), 1
	}
	return t.pool.node(t.root), t.levels
}

// regionOf returns the base of the 2 MiB region holding va.
func regionOf(va mem.VAddr) mem.VAddr { return mem.AlignDown(va, mem.PageBytes2M) }

// LeafPTE returns the leaf PTE mapping va.
func (t *Table) LeafPTE(va mem.VAddr) (mem.PTE, bool) {
	node, idx, ok := t.leafSlot(va)
	if !ok {
		return 0, false
	}
	return node.entries[idx], true
}

// RelocateL1 moves the last-level node that maps va to a new physical
// placement, preserving its entries — the mechanism behind gradual TEA
// migration (§4.3). The old frame is reported to the free callback.
func (t *Table) RelocateL1(va mem.VAddr, newBase mem.PAddr) error {
	return t.RelocateNode(va, 1, newBase)
}

// RelocateNode moves the level-`level` node on va's walk path to a new
// physical placement, rewriting the parent entry. Entries are preserved,
// so translations are unaffected; only the fetch address changes.
func (t *Table) RelocateNode(va mem.VAddr, level int, newBase mem.PAddr) error {
	if !mem.IsAligned(uint64(newBase), mem.PageBytes4K) {
		return errors.New("pagetable: unaligned relocation target")
	}
	if level < 1 || level >= t.levels {
		return fmt.Errorf("pagetable: cannot relocate level-%d node", level)
	}
	if _, exists := t.pool.idAt(newBase); exists {
		return fmt.Errorf("pagetable: relocation target %#x occupied", uint64(newBase))
	}
	parent := t.NodeForLevel(va, level+1)
	if parent == nil {
		return ErrNotMapped
	}
	idx := mem.Index(va, level+1)
	id := parent.children[idx]
	if id == 0 {
		return ErrNotMapped
	}
	node := t.pool.node(id)
	old := node.Base
	t.pool.unindex(old)
	node.Base = newBase
	t.pool.put(newBase, id)
	parent.entries[idx] = mem.MakePTE(newBase, 0)
	if t.free != nil {
		t.free(level, old)
	}
	return nil
}
