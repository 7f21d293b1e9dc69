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
	"math/bits"

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

// maxWays bounds the associativity: a set's recency order is one word of
// 4-bit way numbers.
const maxWays = 16

// Check reports whether NewCache accepts the geometry: 1 to maxWays ways
// and a size that splits into at least one whole set of whole lines.
func (c Config) Check() error {
	if c.Ways <= 0 || c.Ways > maxWays || c.Sets() <= 0 || c.SizeBytes%(c.Ways*mem.CacheLineBytes) != 0 {
		return fmt.Errorf("cache: bad geometry %+v", c)
	}
	return nil
}

// Set layout in ents: two words of per-way 1-byte tag fingerprints (ways
// 0–7, then 8–15; 0 = invalid), one recency-order word, then the ways'
// full tags.
const (
	ordWord  = 2
	hdrWords = 3
	lanes    = 0x0101010101010101 // one 1 per fingerprint byte
	nibbles  = 0x1111111111111111 // one 1 per order nibble
	// identOrd is the order word's XOR key, the identity order: a zeroed
	// word decodes to ways 0, 1, …, 15 from MRU to LRU.
	identOrd = 0xfedcba9876543210
)

// Cache is one set-associative LRU cache array. Each set is one contiguous
// span of ents (layout above), so a probe touches one span instead of
// chasing pointers, which matters because every simulated memory access
// probes several sets and the larger arrays (the LLC's) miss the host's own
// caches. A probe costs the same at any way count: it matches every way's
// fingerprint byte at once and compares only the candidates' full tags, and
// the recency order names the LRU way without comparing ages.
type Cache struct {
	cfg   Config
	span  int // hdrWords + ways: words per set in ents
	nsets uint64
	mask  uint64    // nsets-1 when nsets is a power of two, else 0 (modulo path)
	live  [2]uint64 // per fingerprint word, the high bit of each way's byte
	lru   uint      // bit offset of the LRU nibble in the order word
	ents  []uint64  // tags are stored +1 so that 0 means invalid

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
	// A shift by 64 or more is 0 in Go, so 1<<(8*ways)-1 covers every byte
	// of a full word.
	live := func(ways int) uint64 { return (uint64(1)<<(8*ways) - 1) & lanes << 7 }
	c := &Cache{
		cfg:   cfg,
		span:  hdrWords + cfg.Ways,
		nsets: uint64(n),
		live:  [2]uint64{live(cfg.Ways), live(max(cfg.Ways-8, 0))},
		lru:   uint(4 * (cfg.Ways - 1)),
		ents:  make([]uint64, n*(hdrWords+cfg.Ways)),
	}
	if n&(n-1) == 0 {
		c.mask = uint64(n) - 1
	}
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// locate returns pa's set span in ents and its match tag. For power-of-two
// set counts above one (every Table 3 geometry, scaled or not, except
// single-set levels, which take the modulo path) the set index is a mask —
// bit-identical to the modulo it replaces — so the hot path avoids a
// hardware divide.
func (c *Cache) locate(pa mem.PAddr) ([]uint64, uint64) {
	line := uint64(pa) / mem.CacheLineBytes
	var si uint64
	if c.mask != 0 {
		si = line & c.mask
	} else {
		si = line % c.nsets
	}
	base := int(si) * c.span
	return c.ents[base : base+c.span], line + 1 // +1 so tag 0 means invalid
}

// fingerprint folds a tag into a non-zero byte. Lines of one set differ
// only above the set index, so the fold multiplies first to spread those
// bits into the byte it keeps.
func fingerprint(tag uint64) uint64 {
	fp := tag * 0x9e3779b97f4a7c15 >> 56
	return fp + (fp-1)>>63 // 0 → 1
}

// find returns the way of set holding tag, or -1. A zero-byte test over the
// fingerprints XOR fp flags every byte that matches (and at most a few
// false ones above a match, which the full tag check rejects); masking to
// the live ways keeps it off the bytes of ways the cache does not have.
func (c *Cache) find(set []uint64, tag, fp uint64) int {
	b := fp * lanes
	for i := range c.live {
		x := set[i] ^ b
		for m := (x - lanes) &^ x & c.live[i]; m != 0; m &= m - 1 {
			w := i<<3 | bits.TrailingZeros64(m)>>3
			if set[hdrWords+w] == tag {
				return w
			}
		}
	}
	return -1
}

// touch makes way w the most recently used of set.
func touch(set []uint64, w int) {
	ord := set[ordWord] ^ identOrd
	x := ord ^ uint64(w)*nibbles
	// w occurs once in the word, and the lowest nibble the zero test flags
	// is always a true zero, so this is w's nibble offset.
	p := uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
	set[ordWord] = moveFront(ord, p) ^ identOrd
}

// moveFront moves the nibble at bit offset p of the order word ord to the
// front, shifting the nibbles before it back by one place.
func moveFront(ord uint64, p uint) uint64 {
	before := uint64(1)<<(p&60) - 1
	return ord&^(before<<4|0xf) | (ord&before)<<4 | ord>>(p&60)&0xf
}

// fill evicts set's LRU way — an invalid way while the set is not full,
// since ways are never invalidated one at a time — for tag, and makes it
// the most recently used.
func (c *Cache) fill(set []uint64, tag, fp uint64) {
	ord := set[ordWord] ^ identOrd
	w := ord >> c.lru & 0xf
	set[ordWord] = moveFront(ord, c.lru) ^ identOrd
	sh := w & 7 * 8
	set[w>>3] = set[w>>3]&^(0xff<<sh) | fp<<sh
	set[hdrWords+w] = tag
}

// Lookup probes for the line holding pa and refreshes LRU state on a hit.
func (c *Cache) Lookup(pa mem.PAddr) bool {
	set, tag := c.locate(pa)
	if w := c.find(set, tag, fingerprint(tag)); w >= 0 {
		touch(set, w)
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// Insert fills the line holding pa, evicting the LRU victim, or refreshes
// it if it is already present.
func (c *Cache) Insert(pa mem.PAddr) {
	set, tag := c.locate(pa)
	fp := fingerprint(tag)
	if w := c.find(set, tag, fp); w >= 0 {
		touch(set, w)
		return
	}
	c.fill(set, tag, fp)
}

// lookupOrFill probes for the line holding pa and, on a miss, fills the
// victim way of the same set: exactly Lookup followed by Insert of the same
// line, with one set location and one fingerprint match instead of two.
func (c *Cache) lookupOrFill(pa mem.PAddr) bool {
	set, tag := c.locate(pa)
	fp := fingerprint(tag)
	if w := c.find(set, tag, fp); w >= 0 {
		touch(set, w)
		c.Hits++
		return true
	}
	c.Misses++
	c.fill(set, tag, fp)
	return false
}

// contains reports whether the line holding pa is present, without
// touching LRU state or counters.
func (c *Cache) contains(pa mem.PAddr) bool {
	set, tag := c.locate(pa)
	return c.find(set, tag, fingerprint(tag)) >= 0
}

// Flush invalidates the entire array (used across simulated context
// switches in tests). A zeroed set is empty, in identity order.
func (c *Cache) Flush() { clear(c.ents) }

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
// holding the line as its most recently used, exactly as the
// lookup-then-backfill phrasing would leave it, without reprobing any set.
func (h *Hierarchy) Access(pa mem.PAddr) AccessResult {
	h.Accesses++
	switch {
	case h.L1D.lookupOrFill(pa):
		return AccessResult{h.cfg.L1D.LatencyRT, LevelL1}
	case h.L2.lookupOrFill(pa):
		return AccessResult{h.cfg.L2.LatencyRT, LevelL2}
	case h.LLC.lookupOrFill(pa):
		return AccessResult{h.cfg.LLC.LatencyRT, LevelLLC}
	default:
		h.MemFetches++
		return AccessResult{h.cfg.MemLatency, LevelMem}
	}
}

// AccessBatch performs demand accesses to every pa in order, returning the
// summed round-trip cycles. It is bit-identical to calling Access per
// element — same lookup order, same inclusive fills, same LRU order and
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
		h.Accesses++
		switch {
		case l1.lookupOrFill(pa):
			cycles += latL1
		case l2.lookupOrFill(pa):
			cycles += latL2
		case llc.lookupOrFill(pa):
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
	if h.L2.lookupOrFill(pa) {
		return LevelL2
	}
	if h.LLC.lookupOrFill(pa) {
		return LevelLLC
	}
	h.MemFetches++
	return LevelMem
}

// Contains reports whether pa is present at any level (test helper).
func (h *Hierarchy) Contains(pa mem.PAddr) bool {
	return h.L1D.contains(pa) || h.L2.contains(pa) || h.LLC.contains(pa)
}

// Flush empties all levels.
func (h *Hierarchy) Flush() {
	h.L1D.Flush()
	h.L2.Flush()
	h.LLC.Flush()
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }
