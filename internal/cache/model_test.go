package cache

import (
	"math/rand"
	"testing"

	"dmt/internal/mem"
)

// refCache is the reference model of one cache array, written for
// obviousness: a map from set index to the lines the set holds, most
// recently used first. It shares nothing with Cache but the set-index rule.
type refCache struct {
	ways         int
	nsets        uint64
	sets         map[uint64][]uint64
	hits, misses uint64
}

func newRefCache(cfg Config) *refCache {
	return &refCache{ways: cfg.Ways, nsets: uint64(cfg.Sets()), sets: map[uint64][]uint64{}}
}

func (r *refCache) where(pa mem.PAddr) (set uint64, line uint64, at int) {
	line = uint64(pa) / mem.CacheLineBytes
	set = line % r.nsets
	for i, l := range r.sets[set] {
		if l == line {
			return set, line, i
		}
	}
	return set, line, -1
}

// toFront makes line the most recently used of set, dropping the least
// recently used line when that overfills the set.
func (r *refCache) toFront(set, line uint64, at int) {
	old := r.sets[set]
	if at >= 0 {
		old = append(old[:at:at], old[at+1:]...)
	}
	lines := append([]uint64{line}, old...)
	if len(lines) > r.ways {
		lines = lines[:r.ways]
	}
	r.sets[set] = lines
}

func (r *refCache) lookup(pa mem.PAddr) bool {
	set, line, at := r.where(pa)
	if at < 0 {
		r.misses++
		return false
	}
	r.hits++
	r.toFront(set, line, at)
	return true
}

func (r *refCache) insert(pa mem.PAddr) {
	set, line, at := r.where(pa)
	r.toFront(set, line, at)
}

func (r *refCache) contains(pa mem.PAddr) bool {
	_, _, at := r.where(pa)
	return at >= 0
}

func (r *refCache) clone() *refCache {
	n := *r
	n.sets = map[uint64][]uint64{}
	for s, lines := range r.sets {
		n.sets[s] = append([]uint64(nil), lines...)
	}
	return &n
}

// refHierarchy composes three refCaches the way Hierarchy is specified:
// probe each level in turn and fill every level that missed.
type refHierarchy struct {
	cfg                  HierarchyConfig
	lv                   [3]*refCache
	accesses, memFetches uint64
}

func (r *refHierarchy) access(pa mem.PAddr) AccessResult {
	r.accesses++
	lat := [3]int{r.cfg.L1D.LatencyRT, r.cfg.L2.LatencyRT, r.cfg.LLC.LatencyRT}
	for i, c := range r.lv {
		if c.lookup(pa) {
			return AccessResult{lat[i], Level(i)}
		}
		c.insert(pa)
	}
	r.memFetches++
	return AccessResult{r.cfg.MemLatency, LevelMem}
}

func (r *refHierarchy) prefetch(pa mem.PAddr) Level {
	for i, c := range r.lv[1:] {
		if c.lookup(pa) {
			return Level(i + 1)
		}
		c.insert(pa)
	}
	r.memFetches++
	return LevelMem
}

func (r *refHierarchy) clone() *refHierarchy {
	n := *r
	for i, c := range r.lv {
		n.lv[i] = c.clone()
	}
	return &n
}

// sameSet is lcm(1, …, 16): lines this far apart share a set at every set
// count the fuzzer builds.
const sameSet = 720720

// withFingerprint steps line by sameSet until its tag's fingerprint is fp.
func withFingerprint(line, fp uint64) uint64 {
	for fingerprint(line+1) != fp {
		line += sameSet
	}
	return line
}

// modelPool returns n addresses drawn around a few set groups: lines that
// share their group's set and fingerprint (only the full tag check tells
// them apart), lines of fingerprint 1 (the byte a zero-byte test's borrow
// can falsely flag), plain same-set lines, low lines and lines anywhere in
// the 64-bit space, most of them far above 2^40.
func modelPool(seed byte, n int) []mem.PAddr {
	rng := rand.New(rand.NewSource(int64(seed)))
	base := make([]uint64, 1+int(seed)%4)
	for g := range base {
		base[g] = rng.Uint64() >> 30
	}
	pool := make([]mem.PAddr, n)
	for i := range pool {
		b := base[i%len(base)]
		near := b + uint64(rng.Intn(64))*sameSet
		var line uint64
		switch rng.Intn(6) {
		case 0:
			line = uint64(rng.Intn(512))
		case 1:
			line = rng.Uint64() >> 7
		case 2:
			line = withFingerprint(near, fingerprint(b+1))
		case 3:
			line = withFingerprint(near, 1)
		default:
			line = near
		}
		pool[i] = mem.PAddr(line*mem.CacheLineBytes + uint64(rng.Intn(mem.CacheLineBytes)))
	}
	return pool
}

// geometry maps one fuzz byte to 1–16 ways and 1–16 sets, so both the
// mask and the modulo set-index paths run.
func geometry(b byte, lat int) Config {
	ways, sets := 1+int(b&15), 1+int(b>>4)
	return Config{SizeBytes: sets * ways * mem.CacheLineBytes, Ways: ways, LatencyRT: lat}
}

type modelSide struct {
	h   *Hierarchy
	ref *refHierarchy
}

// runModelOps decodes a 4-byte header (three level geometries and a pool
// seed) and then 3-byte ops, and drives two (Hierarchy, model) sides with
// them. A Clone op replaces side 1 with a clone of side 0; both sides are
// driven independently afterwards. After every op both sides' outcomes,
// counters and per-level presence of every pool address must match.
func runModelOps(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) < 4 {
		return
	}
	cfg := HierarchyConfig{L1D: geometry(ops[0], 4), L2: geometry(ops[1], 14), LLC: geometry(ops[2], 54), MemLatency: 200}
	pool := modelPool(ops[3], 8+int(ops[3])%57)
	newSide := func() *modelSide {
		h, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refHierarchy{cfg: cfg, lv: [3]*refCache{newRefCache(cfg.L1D), newRefCache(cfg.L2), newRefCache(cfg.LLC)}}
		return &modelSide{h, ref}
	}
	sides := [2]*modelSide{newSide(), newSide()}
	check := func(s *modelSide, op int) {
		t.Helper()
		h, ref := s.h, s.ref
		if h.Accesses != ref.accesses || h.MemFetches != ref.memFetches {
			t.Fatalf("op %d: Accesses/MemFetches = %d/%d, model %d/%d", op, h.Accesses, h.MemFetches, ref.accesses, ref.memFetches)
		}
		for i, c := range []*Cache{h.L1D, h.L2, h.LLC} {
			r := ref.lv[i]
			if c.Hits != r.hits || c.Misses != r.misses {
				t.Fatalf("op %d: %v Hits/Misses = %d/%d, model %d/%d", op, Level(i), c.Hits, c.Misses, r.hits, r.misses)
			}
			for _, pa := range pool {
				if got, want := c.contains(pa), r.contains(pa); got != want {
					t.Fatalf("op %d: %v contains(%#x) = %v, model %v", op, Level(i), pa, got, want)
				}
			}
		}
		for _, pa := range pool {
			want := ref.lv[0].contains(pa) || ref.lv[1].contains(pa) || ref.lv[2].contains(pa)
			if got := h.Contains(pa); got != want {
				t.Fatalf("op %d: Contains(%#x) = %v, model %v", op, pa, got, want)
			}
		}
	}
	for i := 4; i+3 <= len(ops); i += 3 {
		op, a, b := ops[i], int(ops[i+1]), int(ops[i+2])
		s := sides[op>>7]
		pa := pool[a%len(pool)]
		lv := b % 3
		c := []*Cache{s.h.L1D, s.h.L2, s.h.LLC}[lv]
		switch op & 7 {
		case 0, 1:
			if got, want := s.h.Access(pa), s.ref.access(pa); got != want {
				t.Fatalf("op %d: Access(%#x) = %+v, model %+v", i, pa, got, want)
			}
		case 2:
			pas := make([]mem.PAddr, b%9)
			var want uint64
			for k := range pas {
				pas[k] = pool[(a+k*b)%len(pool)]
				want += uint64(s.ref.access(pas[k]).Cycles)
			}
			if got := s.h.AccessBatch(pas); got != want {
				t.Fatalf("op %d: AccessBatch(%#x) = %d cycles, model %d", i, pas, got, want)
			}
		case 3:
			if got, want := s.h.Prefetch(pa), s.ref.prefetch(pa); got != want {
				t.Fatalf("op %d: Prefetch(%#x) = %v, model %v", i, pa, got, want)
			}
		case 4:
			if got, want := c.Lookup(pa), s.ref.lv[lv].lookup(pa); got != want {
				t.Fatalf("op %d: %v Lookup(%#x) = %v, model %v", i, Level(lv), pa, got, want)
			}
		case 5:
			c.Insert(pa)
			s.ref.lv[lv].insert(pa)
		case 6:
			if b%8 != 0 {
				continue
			}
			if a%4 == 3 {
				s.h.Flush()
				for _, r := range s.ref.lv {
					r.sets = map[uint64][]uint64{}
				}
			} else {
				c.Flush()
				s.ref.lv[lv].sets = map[uint64][]uint64{}
			}
		case 7:
			sides[1] = &modelSide{sides[0].h.Clone(), sides[0].ref.clone()}
		}
		check(sides[0], i)
		check(sides[1], i)
	}
}

func TestCacheMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 300; run++ {
		ops := make([]byte, 4+3*(50+rng.Intn(400)))
		rng.Read(ops)
		runModelOps(t, ops)
	}
}

func FuzzCacheMatchesModel(f *testing.F) {
	f.Add([]byte{0x07, 0x0f, 0x3a, 1, 0, 0, 0, 0, 1, 0, 0, 2, 0, 4, 3, 1, 7, 0, 0, 128, 5, 1, 5, 6, 2})
	f.Add([]byte{0x00, 0x12, 0x2b, 9, 5, 1, 0, 1, 2, 3, 2, 4, 6, 3, 5, 7, 135, 1, 4, 4, 5, 0, 1, 1, 6, 3, 0})
	f.Add([]byte{0xff, 0xfa, 0x5a, 200, 1, 2, 3, 0, 9, 9, 130, 9, 9, 4, 1, 2, 5, 9, 0, 7, 7, 7, 129, 9, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runModelOps(t, ops)
	})
}

// TestConfigCheckBoundsWays pins the associativity bound: a set's recency
// order is one word of 4-bit way numbers, so 16 ways is the most a cache
// can have.
func TestConfigCheckBoundsWays(t *testing.T) {
	for ways, ok := range map[int]bool{1: true, 11: true, 16: true, 17: false, 32: false} {
		cfg := Config{SizeBytes: 4 * ways * mem.CacheLineBytes, Ways: ways, LatencyRT: 1}
		if err := cfg.Check(); (err == nil) != ok {
			t.Errorf("Check(%d ways) = %v, want ok=%v", ways, err, ok)
		}
		if _, err := NewCache(cfg); (err == nil) != ok {
			t.Errorf("NewCache(%d ways) = %v, want ok=%v", ways, err, ok)
		}
	}
}
