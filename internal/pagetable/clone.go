package pagetable

// Clone deep-copies the table into a fresh Pool, preserving every node's
// physical placement (clones translate identically, PTE addresses included)
// while sharing no arena or index storage with the original. Because nodes
// reference their children by nodeID rather than pointer, the copy is a flat
// memcpy of the arena slabs plus the frame index — no recursive traversal,
// no pointer rewriting — so clone cost is proportional to arena size with
// slab-copy constants, not to tree shape. The placement callbacks are NOT
// copied: they close over the prototype's allocator and TEA manager, so the
// caller must supply replacements bound to the cloned substrate
// (kernel.AddressSpace.Clone passes its own allocNode/freeNode).
func (t *Table) Clone(alloc NodeAllocFunc, free NodeFreeFunc) *Table {
	return &Table{
		pool:   t.pool.clone(),
		levels: t.levels,
		root:   t.root,
		alloc:  alloc,
		free:   free,
		Mapped: t.Mapped,
	}
}

// clone copies the pool: slab contents, freelist and frame index. The
// slabs are copied into one backing allocation. nodeIDs are arena-relative,
// so they remain valid verbatim in the copy; released slots are zeroed at
// release time, so copying them leaks nothing.
func (p *Pool) clone() *Pool {
	c := &Pool{used: p.used, index: p.index.Clone()}
	backing := make([][slabNodes]Node, len(p.slabs))
	c.slabs = make([]*[slabNodes]Node, len(p.slabs))
	for i, s := range p.slabs {
		backing[i] = *s
		c.slabs[i] = &backing[i]
	}
	if len(p.free) > 0 {
		c.free = make([]nodeID, len(p.free))
		copy(c.free, p.free)
	}
	return c
}
