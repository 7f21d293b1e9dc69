package cache

// Clone deep-copies one cache array: every set's fingerprints, recency
// order and tags, and the hit/miss counters, so lookups on the clone age its
// own sets only.
func (c *Cache) Clone() *Cache {
	n := *c
	n.ents = append([]uint64(nil), c.ents...)
	return &n
}

// Clone deep-copies the hierarchy, including the warm state machine
// construction left behind (page-table builds touch PTE lines), so a cloned
// machine observes exactly the cache contents a fresh build would.
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{
		cfg:        h.cfg,
		L1D:        h.L1D.Clone(),
		L2:         h.L2.Clone(),
		LLC:        h.LLC.Clone(),
		Accesses:   h.Accesses,
		MemFetches: h.MemFetches,
	}
}
