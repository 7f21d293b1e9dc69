// Package cache simulates the memory hierarchy of the measurement platform
// (Table 3 of the paper): per-core L1D and L2 caches, a shared last-level
// cache, and main memory, each with set-associative LRU arrays and the
// paper's round-trip latencies. Both data accesses and PTE fetches issued by
// the translation designs go through this hierarchy, which is what makes
// walk-latency comparisons meaningful — the whole point of DMT is *which*
// PTE lines are fetched, and from *where*.
package cache

import (
	"fmt"

	"dmt/internal/mem"
)

// Level identifies where an access was served.
type Level uint8

const (
	LevelL1 Level = iota
	LevelL2
	LevelLLC
	LevelMem
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelMem:
		return "Mem"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// Config describes one cache array.
type Config struct {
	SizeBytes int
	Ways      int
	LatencyRT int // round-trip access latency in cycles
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * mem.CacheLineBytes) }

// Check reports whether NewCache accepts the geometry: a positive way
// count and a size that splits into at least one whole set of whole lines.
func (c Config) Check() error {
	if c.Ways <= 0 || c.Sets() <= 0 || c.SizeBytes%(c.Ways*mem.CacheLineBytes) != 0 {
		return fmt.Errorf("cache: bad geometry %+v", c)
	}
	return nil
}

// Cache is one set-associative LRU cache array. Tags and LRU stamps live
// interleaved in one flat array — (tag, stamp) pairs, set-major — rather
// than per-set slices or parallel arrays: a probe touches one contiguous
// span per set instead of chasing pointers or straddling a tags array and
// a stamps array, which matters because every simulated memory access
// walks these arrays several times and the larger arrays (the LLC's) miss
// the host's own caches.
type Cache struct {
	cfg   Config
	ways  int
	wspan int // ways*2: elements per set in ents
	nsets uint64
	mask  uint64   // nsets-1 when nsets is a power of two, else 0 (modulo path)
	ents  []uint64 // (tag, stamp) pairs; tag 0 = invalid (stored +1)

	Hits   uint64
	Misses uint64
}

// NewCache builds a cache array from cfg. Size, way count, and line size
// must divide evenly; misconfiguration is reported as an error.
func NewCache(cfg Config) (*Cache, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	n := cfg.Sets()
	c := &Cache{
		cfg:   cfg,
		ways:  cfg.Ways,
		wspan: cfg.Ways * 2,
		nsets: uint64(n),
		ents:  make([]uint64, n*cfg.Ways*2),
	}
	if n&(n-1) == 0 {
		c.mask = uint64(n) - 1
	}
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// locate returns the first element index of pa's set in ents and its match
// tag. For power-of-two set counts (every Table 3 geometry, scaled or not)
// the set index is a mask — bit-identical to the modulo it replaces — so
// the hot path avoids a hardware divide.
func (c *Cache) locate(pa mem.PAddr) (int, uint64) {
	line := uint64(pa) / mem.CacheLineBytes
	var si uint64
	if c.mask != 0 {
		si = line & c.mask
	} else {
		si = line % c.nsets
	}
	return int(si) * c.wspan, line + 1 // +1 so tag 0 means invalid
}

// Lookup probes for the line holding pa and refreshes LRU state on a hit.
func (c *Cache) Lookup(pa mem.PAddr, now uint64) bool {
	base, tag := c.locate(pa)
	set := c.ents[base : base+c.wspan]
	// w < len(set)-1 (not w < len) so the compiler can prove the scan's
	// element loads in bounds; wspan is even, so the iteration space is
	// identical.
	for w := 0; w < len(set)-1; w += 2 {
		if set[w] == tag {
			set[w+1] = now
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Insert fills the line holding pa, evicting the LRU victim.
func (c *Cache) Insert(pa mem.PAddr, now uint64) {
	base, tag := c.locate(pa)
	set := c.ents[base : base+c.wspan]
	victim, oldest := 0, ^uint64(0)
	for w := 0; w < len(set)-1; w += 2 {
		if set[w] == tag {
			set[w+1] = now
			return
		}
		if set[w] == 0 {
			victim, oldest = w, 0
			break
		}
		if s := set[w+1]; s < oldest {
			victim, oldest = w, s
		}
	}
	set[victim] = tag
	set[victim+1] = now
}

// lookupOrFill probes for the line holding pa and, on a miss, fills the
// victim way within the same set scan. It is exactly Lookup followed by
// Insert of the same line: valid tags always occupy a prefix of the set
// (fills take the first empty way, evictions replace in place, and Flush
// empties whole sets), so the first empty way encountered both proves the
// tag absent and is the way Insert would pick. Hit/miss counters, LRU
// stamps, and victim choice are bit-identical to the two-call sequence —
// but the set span is touched once instead of twice, which matters on the
// miss path where the span starts cold in the host's own caches.
func (c *Cache) lookupOrFill(pa mem.PAddr, now uint64) bool {
	base, tag := c.locate(pa)
	set := c.ents[base : base+c.wspan]
	victim, oldest := 0, ^uint64(0)
	for w := 0; w < len(set)-1; w += 2 {
		t := set[w]
		if t == tag {
			set[w+1] = now
			c.Hits++
			return true
		}
		if t == 0 {
			c.Misses++
			set[w] = tag
			set[w+1] = now
			return false
		}
		if s := set[w+1]; s < oldest {
			victim, oldest = w, s
		}
	}
	c.Misses++
	set[victim] = tag
	set[victim+1] = now
	return false
}

// Flush invalidates the entire array (used across simulated context
// switches in tests).
func (c *Cache) Flush() {
	for i := 0; i < len(c.ents); i += 2 {
		c.ents[i] = 0
	}
}

// HierarchyConfig describes the full memory system; DefaultConfig matches
// Table 3 (Intel Xeon Gold 6138).
type HierarchyConfig struct {
	L1D        Config
	L2         Config
	LLC        Config
	MemLatency int
}

// DefaultConfig is the simulated-architecture configuration from Table 3:
// 32 KiB 8-way L1D (4-cycle RT), 1 MiB 16-way L2 (14-cycle RT), 22 MiB
// 11-way LLC (54-cycle RT), 200-cycle main memory.
func DefaultConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D:        Config{SizeBytes: 32 << 10, Ways: 8, LatencyRT: 4},
		L2:         Config{SizeBytes: 1 << 20, Ways: 16, LatencyRT: 14},
		LLC:        Config{SizeBytes: 22 << 20, Ways: 11, LatencyRT: 54},
		MemLatency: 200,
	}
}

// ScaledConfig returns DefaultConfig with every capacity divided by factor,
// keeping latencies; used to shrink simulations proportionally with the
// scaled-down working sets (DESIGN.md §6). LLC way count is preserved, so
// factor must leave at least one set per array.
func ScaledConfig(factor int) HierarchyConfig {
	c := DefaultConfig()
	c.L1D.SizeBytes /= factor
	c.L2.SizeBytes /= factor
	c.LLC.SizeBytes /= factor
	return c
}

// Hierarchy is the composed memory system.
type Hierarchy struct {
	cfg HierarchyConfig
	L1D *Cache
	L2  *Cache
	LLC *Cache

	now uint64

	Accesses   uint64
	MemFetches uint64
}

// Check reports whether NewHierarchy accepts every level's geometry,
// without building anything.
func (h HierarchyConfig) Check() error {
	if err := h.L1D.Check(); err != nil {
		return fmt.Errorf("L1D: %w", err)
	}
	if err := h.L2.Check(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if err := h.LLC.Check(); err != nil {
		return fmt.Errorf("LLC: %w", err)
	}
	return nil
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1d, err := NewCache(cfg.L1D)
	if err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	llc, err := NewCache(cfg.LLC)
	if err != nil {
		return nil, fmt.Errorf("LLC: %w", err)
	}
	return &Hierarchy{cfg: cfg, L1D: l1d, L2: l2, LLC: llc}, nil
}

// AccessResult describes one access.
type AccessResult struct {
	Cycles int
	Served Level
}

// Access performs a demand access to the line holding pa, returning the
// round-trip latency and the serving level, and filling all levels above
// the hit (inclusive allocation). Each level that misses is filled by its
// own lookupOrFill as the probe cascades down — every miss level ends up
// holding the line under the same LRU clock tick, exactly as the
// lookup-then-backfill phrasing would leave it, without rescanning any set.
func (h *Hierarchy) Access(pa mem.PAddr) AccessResult {
	h.now++
	h.Accesses++
	switch {
	case h.L1D.lookupOrFill(pa, h.now):
		return AccessResult{h.cfg.L1D.LatencyRT, LevelL1}
	case h.L2.lookupOrFill(pa, h.now):
		return AccessResult{h.cfg.L2.LatencyRT, LevelL2}
	case h.LLC.lookupOrFill(pa, h.now):
		return AccessResult{h.cfg.LLC.LatencyRT, LevelLLC}
	default:
		h.MemFetches++
		return AccessResult{h.cfg.MemLatency, LevelMem}
	}
}

// AccessBatch performs demand accesses to every pa in order, returning the
// summed round-trip cycles. It is bit-identical to calling Access per
// element — same lookup order, same inclusive fills, same LRU clock and
// counters — but keeps the level pointers and per-level configs hot in one
// loop, which matters on the batched engine's TLB-hit runs where the data
// access is the only memory-system work per op.
func (h *Hierarchy) AccessBatch(pas []mem.PAddr) uint64 {
	l1, l2, llc := h.L1D, h.L2, h.LLC
	latL1 := uint64(h.cfg.L1D.LatencyRT)
	latL2 := uint64(h.cfg.L2.LatencyRT)
	latLLC := uint64(h.cfg.LLC.LatencyRT)
	latMem := uint64(h.cfg.MemLatency)
	var cycles uint64
	for _, pa := range pas {
		h.now++
		h.Accesses++
		switch {
		case l1.lookupOrFill(pa, h.now):
			cycles += latL1
		case l2.lookupOrFill(pa, h.now):
			cycles += latL2
		case llc.lookupOrFill(pa, h.now):
			cycles += latLLC
		default:
			h.MemFetches++
			cycles += latMem
		}
	}
	return cycles
}

// Prefetch inserts the line holding pa into the L2 and LLC without charging
// demand latency; this is how the ASAP baseline lands upper-level PTE lines
// ahead of the walk (§6.2.2). It consumes memory bandwidth (recorded in
// MemFetches when the line came from memory) and returns the level the
// line was sourced from, so the consumer can account for the fill latency
// it cannot hide (LevelL2 means the line was already close — nothing to
// wait for).
func (h *Hierarchy) Prefetch(pa mem.PAddr) Level {
	h.now++
	if h.L2.lookupOrFill(pa, h.now) {
		return LevelL2
	}
	if h.LLC.lookupOrFill(pa, h.now) {
		return LevelLLC
	}
	h.MemFetches++
	return LevelMem
}

// Tick advances the hierarchy's LRU clock by one and returns the new stamp.
// Designs that manage individual cache arrays directly (Victima's TLB-spill
// blocks live in stolen L2 ways) stamp their Lookup/Insert calls with it, so
// their lines age on the same clock as demand traffic — mixing a private
// counter in would make spilled lines look arbitrarily old or young to the
// LRU victim scan.
func (h *Hierarchy) Tick() uint64 {
	h.now++
	return h.now
}

// Contains reports whether pa is present at any level (test helper).
func (h *Hierarchy) Contains(pa mem.PAddr) bool {
	// Probe without disturbing LRU or stats: inspect tags directly.
	for _, c := range []*Cache{h.L1D, h.L2, h.LLC} {
		base, tag := c.locate(pa)
		set := c.ents[base : base+c.wspan]
		for w := 0; w < len(set); w += 2 {
			if set[w] == tag {
				return true
			}
		}
	}
	return false
}

// Flush empties all levels.
func (h *Hierarchy) Flush() {
	h.L1D.Flush()
	h.L2.Flush()
	h.LLC.Flush()
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }
