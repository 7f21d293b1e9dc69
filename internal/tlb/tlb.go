// Package tlb implements the translation-lookaside structures of the
// simulated architecture (Table 3): a two-level data TLB (64-entry 4-way L1,
// 1536-entry 12-way L2 STLB), the 3-level page-walk caches (2/4/32 entries,
// 1-cycle access), and the nested page-walk cache used by two-dimensional
// walks in virtualized environments.
package tlb

import (
	"fmt"

	"dmt/internal/mem"
)

// assoc is a small set-associative map from uint64 keys to uint64 values
// with LRU replacement; it backs TLBs, PWCs, and nested walk caches. Keys,
// values, and stamps live interleaved in one flat set-major array — (key,
// val, stamp) triplets — so the walk hot path, which probes these
// structures many times per translation, touches one contiguous span per
// set: no pointer chase, no hardware divide for power-of-two set counts
// above one (they take a mask; a single set, with mask 0, takes the
// modulo path), and a hit reads its value and writes its stamp on the
// cache line it just scanned.
type assoc struct {
	ents  []uint64 // (key+1, val, stamp) triplets; key 0 = invalid
	ways  int
	wspan int // ways*3: elements per set in ents
	nsets uint64
	mask  uint64 // nsets-1 when nsets is a power of two, else 0 (modulo path)
	now   uint64

	// Miss stash: a failed lookup has already scanned the very set a
	// follow-up insert of the same key will scan, so it records the victim
	// way it would pick. insert consumes the stash for an O(1) fill when —
	// and only when — the stashed probe was the immediately preceding
	// operation on this assoc: every hit, insert, invalidate, and flush
	// clears the stash, so a matching stash proves the set (tags and
	// stamps, hence the victim choice) is exactly as the probe saw it.
	// This is the TLB/PWC walk pattern — probe, miss, walk, install —
	// with the install's set scan folded into the probe it always follows.
	missKey    uint64 // key+1 of the stashed miss; 0 = no stash
	missBase   int
	missVictim int
}

func newAssoc(entries, ways int) (*assoc, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("tlb: bad geometry: %d entries / %d ways", entries, ways)
	}
	n := entries / ways
	a := &assoc{
		ents:  make([]uint64, entries*3),
		ways:  ways,
		wspan: ways * 3,
		nsets: uint64(n),
	}
	if n&(n-1) == 0 {
		a.mask = uint64(n) - 1
	}
	return a, nil
}

// normAssoc builds an assoc after clamping the geometry to the nearest valid
// shape (at least one way, entries a multiple of ways); the resulting
// construction cannot fail.
func normAssoc(entries, ways int) *assoc {
	if ways < 1 {
		ways = 1
	}
	if entries < ways {
		ways = entries
	}
	if ways < 1 {
		entries, ways = 1, 1
	}
	entries -= entries % ways
	a, _ := newAssoc(entries, ways)
	return a
}

// set returns the first element index of key's set in ents. The set index
// computed by the mask fast path equals the modulo it replaces exactly, so
// hit/miss patterns — and therefore every simulated metric — are unchanged.
func (a *assoc) set(key uint64) int {
	// Mix the key so consecutive VPNs spread across sets.
	h := key * 0x9e3779b97f4a7c15
	var si uint64
	if a.mask != 0 {
		si = (h >> 32) & a.mask
	} else {
		si = (h >> 32) % a.nsets
	}
	return int(si) * a.wspan
}

func (a *assoc) lookup(key uint64) (uint64, bool) {
	a.now++
	base := a.set(key)
	set := a.ents[base : base+a.wspan]
	victim, oldest, empty := 0, ^uint64(0), -1
	// w < len(set)-2 (not w < len) so the compiler can prove the scan's
	// element loads in bounds; wspan is a multiple of 3, so the iteration
	// space is identical.
	for w := 0; w < len(set)-2; w += 3 {
		k := set[w]
		if k == key+1 {
			set[w+2] = a.now
			a.missKey = 0
			return set[w+1], true
		}
		if k == 0 {
			if empty < 0 {
				empty = w
			}
			continue
		}
		if s := set[w+2]; s < oldest {
			victim, oldest = w, s
		}
	}
	// Stash the way insert would choose: the first empty way if any
	// (invalidate can leave holes anywhere in a set), else the LRU way.
	if empty >= 0 {
		victim = empty
	}
	a.missKey = key + 1
	a.missBase = base
	a.missVictim = victim
	return 0, false
}

func (a *assoc) insert(key, val uint64) {
	a.now++
	if a.missKey == key+1 {
		// The set is untouched since the stashed miss probe of this key:
		// the key is known absent and the stashed way is exactly the
		// victim the scan below would pick.
		a.missKey = 0
		w := a.missBase + a.missVictim
		a.ents[w] = key + 1
		a.ents[w+1] = val
		a.ents[w+2] = a.now
		return
	}
	a.missKey = 0
	base := a.set(key)
	set := a.ents[base : base+a.wspan]
	// The whole set is scanned for key before a hole is taken: invalidate
	// can leave a hole below a way that still holds key, and filling that
	// hole would keep two copies of it.
	victim, oldest, empty := 0, ^uint64(0), -1
	for w := 0; w < len(set)-2; w += 3 {
		k := set[w]
		if k == key+1 {
			set[w+1] = val
			set[w+2] = a.now
			return
		}
		if k == 0 {
			if empty < 0 {
				empty = w
			}
			continue
		}
		if s := set[w+2]; s < oldest {
			victim, oldest = w, s
		}
	}
	if empty >= 0 {
		victim = empty
	}
	set[victim] = key + 1
	set[victim+1] = val
	set[victim+2] = a.now
}

func (a *assoc) invalidate(key uint64) {
	a.missKey = 0
	base := a.set(key)
	set := a.ents[base : base+a.wspan]
	for w := 0; w < len(set); w += 3 {
		if set[w] == key+1 {
			set[w] = 0
		}
	}
}

func (a *assoc) flush() {
	a.missKey = 0
	for i := 0; i < len(a.ents); i += 3 {
		a.ents[i] = 0
	}
}

// Config describes the two-level TLB; DefaultConfig matches Table 3.
type Config struct {
	L1Entries, L1Ways int
	L2Entries, L2Ways int
}

// DefaultConfig is the Table 3 data-side configuration: 64-entry 4-way L1D
// TLB and 1536-entry 12-way L2 STLB.
func DefaultConfig() Config {
	return Config{L1Entries: 64, L1Ways: 4, L2Entries: 1536, L2Ways: 12}
}

// TLB is a two-level, multi-page-size translation lookaside buffer keyed by
// (ASID, page size, VPN).
type TLB struct {
	l1, l2 *assoc

	// seen[size] records whether any entry of that page-size class has been
	// inserted since the last full flush. Probing a size class with no
	// resident entries can never hit, and a missing probe leaves nothing
	// observable behind (only the assoc's internal clock, whose absolute
	// value no replacement decision reads — victim choice depends on stamp
	// order, which skipping cannot change), so the lookup loops try only
	// the classes that can possibly hold a translation. With THP off that
	// halves-to-thirds the probe work of every single lookup.
	seen [3]bool

	L1Hits, L2Hits, Misses uint64
}

// New builds a TLB from cfg. Invalid geometry (non-positive sizes or an
// entry count not divisible by the way count) is reported as an error.
func New(cfg Config) (*TLB, error) {
	l1, err := newAssoc(cfg.L1Entries, cfg.L1Ways)
	if err != nil {
		return nil, fmt.Errorf("L1 TLB: %w", err)
	}
	l2, err := newAssoc(cfg.L2Entries, cfg.L2Ways)
	if err != nil {
		return nil, fmt.Errorf("L2 TLB: %w", err)
	}
	return &TLB{l1: l1, l2: l2}, nil
}

func key(va mem.VAddr, size mem.PageSize, asid uint16) uint64 {
	return mem.PageNumber(va, size)<<12 | uint64(asid)<<2 | uint64(size)
}

// pageSizes is the probe order shared by every lookup loop.
var pageSizes = [...]mem.PageSize{mem.Size4K, mem.Size2M, mem.Size1G}

// Lookup probes both levels for a translation of va under asid, trying all
// three page sizes. On an L2 hit the entry is promoted into the L1.
func (t *TLB) Lookup(va mem.VAddr, asid uint16) (mem.PAddr, mem.PageSize, bool) {
	for _, size := range pageSizes {
		if !t.seen[size] {
			continue
		}
		k := key(va, size, asid)
		if v, ok := t.l1.lookup(k); ok {
			t.L1Hits++
			return frameToPA(v, va, size), size, true
		}
	}
	for _, size := range pageSizes {
		if !t.seen[size] {
			continue
		}
		k := key(va, size, asid)
		if v, ok := t.l2.lookup(k); ok {
			t.L2Hits++
			t.l1.insert(k, v)
			return frameToPA(v, va, size), size, true
		}
	}
	t.Misses++
	return 0, 0, false
}

func frameToPA(frame uint64, va mem.VAddr, size mem.PageSize) mem.PAddr {
	return mem.PAddr(frame<<size.Shift() | mem.PageOffset(va, size))
}

// LookupBatch probes translations for vas in op order, writing each hit's
// physical address to the corresponding pas slot and stopping at the first
// miss. It is bit-identical to calling Lookup per element — same probe
// order, same LRU and promotion updates, same counters — but runs as one
// tight loop inside the package, so the level pointers and set metadata
// stay hot across consecutive ops instead of being re-established per call.
//
// It returns the number of leading hits. missProbed reports whether a miss
// terminated the run within len(vas): that miss has been fully probed and
// charged (both levels, Misses counter) exactly once, so the caller must
// walk vas[hits] without probing again. missProbed is false iff every
// element hit.
func (t *TLB) LookupBatch(vas []mem.VAddr, asid uint16, pas []mem.PAddr) (hits int, missProbed bool) {
	l1, l2 := t.l1, t.l2
probe:
	for i, va := range vas {
		for _, size := range pageSizes {
			if !t.seen[size] {
				continue
			}
			k := key(va, size, asid)
			if v, ok := l1.lookup(k); ok {
				t.L1Hits++
				pas[i] = frameToPA(v, va, size)
				continue probe
			}
		}
		for _, size := range pageSizes {
			if !t.seen[size] {
				continue
			}
			k := key(va, size, asid)
			if v, ok := l2.lookup(k); ok {
				t.L2Hits++
				l1.insert(k, v)
				pas[i] = frameToPA(v, va, size)
				continue probe
			}
		}
		t.Misses++
		return i, true
	}
	return len(vas), false
}

// Insert installs the translation va→pa (page-aligned internally) for the
// given page size into both levels.
func (t *TLB) Insert(va mem.VAddr, pa mem.PAddr, size mem.PageSize, asid uint16) {
	t.seen[size] = true
	k := key(va, size, asid)
	frame := uint64(pa) >> size.Shift()
	t.l1.insert(k, frame)
	t.l2.insert(k, frame)
}

// Invalidate drops any entry translating va (all sizes), the analogue of
// INVLPG.
func (t *TLB) Invalidate(va mem.VAddr, asid uint16) {
	for _, size := range pageSizes {
		if !t.seen[size] {
			continue
		}
		t.l1.invalidate(key(va, size, asid))
		t.l2.invalidate(key(va, size, asid))
	}
}

// Flush empties both levels (CR3 write without PCID).
func (t *TLB) Flush() {
	t.seen = [3]bool{}
	t.l1.flush()
	t.l2.flush()
}

// PWCLatency is the access latency of the page-walk caches (Table 3).
const PWCLatency = 1

// PWC is a set of page-walk caches. Entry level L caches, for a VA prefix,
// the physical address of the level-(L-1) page-table node — i.e. a hit at
// level 2 lets the walker skip straight to the last-level (L1) PTE fetch.
// Table 3: 3 levels with 2, 4, and 32 entries (for skip depths covering
// L4, L3, and L2 respectively), 1-cycle access.
type PWC struct {
	// byLevel[level] holds the cache for skip levels 2..4; a fixed array
	// keeps the per-walk probe free of map lookups.
	byLevel [5]*assoc

	Hits, Misses uint64
}

// NewPWC builds the Table 3 page-walk-cache stack.
func NewPWC() *PWC { return NewPWCSized(2, 4, 32) }

// NewPWCSized builds a PWC with explicit entry counts for the L4/L3/L2
// skip levels; used when structures are scaled with the working set
// (DESIGN.md §6).
func NewPWCSized(l4, l3, l2 int) *PWC {
	p := &PWC{}
	p.byLevel[4] = normAssoc(l4, 2)
	p.byLevel[3] = normAssoc(l3, 4)
	p.byLevel[2] = normAssoc(l2, 4)
	return p
}

// NewPWCScaled divides the Table 3 entry counts by scale (minimum one
// entry per level).
func NewPWCScaled(scale int) *PWC {
	d := func(n int) int {
		if n/scale < 1 {
			return 1
		}
		return n / scale
	}
	return NewPWCSized(d(2), d(4), d(32))
}

func pwcKey(va mem.VAddr, level int, asid uint16) uint64 {
	// The prefix consumed by levels > (level-1): everything above the
	// bits indexing the level-(level-1) node.
	prefix := uint64(va) >> mem.LevelShift(level)
	return prefix<<12 | uint64(asid)<<2 | uint64(level)
}

// Lookup probes the PWC for the deepest available skip, trying level 2
// first (largest skip), then 3, then 4. It returns the physical address of
// the next page-table node to read and the level of that node.
func (p *PWC) Lookup(va mem.VAddr, asid uint16) (nodePA mem.PAddr, nextLevel int, ok bool) {
	for level := 2; level <= 4; level++ {
		if v, hit := p.byLevel[level].lookup(pwcKey(va, level, asid)); hit {
			p.Hits++
			return mem.PAddr(v), level - 1, true
		}
	}
	p.Misses++
	return 0, 0, false
}

// Insert records that, for va's prefix at the given level, the next node
// (level-1) resides at nodePA.
func (p *PWC) Insert(va mem.VAddr, level int, nodePA mem.PAddr, asid uint16) {
	if level < 2 || level > 4 {
		return
	}
	p.byLevel[level].insert(pwcKey(va, level, asid), uint64(nodePA))
}

// Flush empties all levels.
func (p *PWC) Flush() {
	for level := 2; level <= 4; level++ {
		p.byLevel[level].flush()
	}
}

// NestedCache caches gPA-page → hPA-page translations discovered during the
// host dimension of a 2D walk (the "nested PWC" row of Table 3, used to
// shortcut steps 1–4, 6–9, … of Figure 2 on reuse).
type NestedCache struct {
	a *assoc

	Hits, Misses uint64
}

// NewNestedCache builds the nested walk cache (38 entries total, matching
// the 2-4-32 budget of Table 3).
func NewNestedCache() *NestedCache {
	return NewNestedCacheSized(38)
}

// NewNestedCacheSized builds a nested walk cache with the given entry
// count (minimum 2).
func NewNestedCacheSized(entries int) *NestedCache {
	if entries < 2 {
		entries = 2
	}
	return &NestedCache{a: normAssoc(entries, 2)}
}

// Lookup returns the cached host frame for a guest-physical page.
func (n *NestedCache) Lookup(gpa mem.PAddr) (mem.PAddr, bool) {
	page := uint64(gpa) >> mem.PageShift4K
	if v, ok := n.a.lookup(page); ok {
		n.Hits++
		return mem.PAddr(v<<mem.PageShift4K | uint64(gpa)&(mem.PageBytes4K-1)), true
	}
	n.Misses++
	return 0, false
}

// Insert records gpa→hpa at page granularity.
func (n *NestedCache) Insert(gpa, hpa mem.PAddr) {
	n.a.insert(uint64(gpa)>>mem.PageShift4K, uint64(hpa)>>mem.PageShift4K)
}

// Flush empties the cache.
func (n *NestedCache) Flush() { n.a.flush() }
