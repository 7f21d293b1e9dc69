package tlb

import (
	"math/rand"
	"slices"
	"testing"

	"dmt/internal/mem"
)

// refEntry is one cached (tag, value) pair of a reference set.
type refEntry struct{ key, val uint64 }

// refAssoc is the reference model of one assoc, written for obviousness: a
// map from set index to the entries the set holds, most recently used
// first. It shares the geometry, the tag encoding and the set-index hash
// with assoc; it always takes the modulo where assoc may take a mask.
type refAssoc struct {
	ways  int
	nsets uint64
	sets  map[uint64][]refEntry
}

func newRefAssoc(a *assoc) *refAssoc {
	return &refAssoc{ways: a.ways, nsets: a.nsets, sets: map[uint64][]refEntry{}}
}

func (r *refAssoc) setOf(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15 >> 32) % r.nsets }

// take removes key from its set, returning its entry if it was there.
func (r *refAssoc) take(key uint64) (refEntry, bool) {
	s := r.setOf(key)
	for i, e := range r.sets[s] {
		if e.key == key {
			r.sets[s] = slices.Delete(slices.Clone(r.sets[s]), i, i+1)
			return e, true
		}
	}
	return refEntry{}, false
}

// front makes e the most recently used entry of its set, dropping the least
// recently used one when that overfills the set.
func (r *refAssoc) front(e refEntry) {
	s := r.setOf(e.key)
	set := append([]refEntry{e}, r.sets[s]...)
	if len(set) > r.ways {
		set = set[:r.ways]
	}
	r.sets[s] = set
}

func (r *refAssoc) lookup(key uint64) (uint64, bool) {
	e, ok := r.take(key)
	if ok {
		r.front(e)
	}
	return e.val, ok
}

func (r *refAssoc) insert(key, val uint64) {
	r.take(key)
	r.front(refEntry{key, val})
}

func (r *refAssoc) invalidate(key uint64) { r.take(key) }

func (r *refAssoc) flush() { r.sets = map[uint64][]refEntry{} }

// sameAs reports the first set whose contents or recency order differ
// between a and the model: a's valid ways, newest stamp first, must be
// exactly the model's list. A duplicated key shows as an extra entry.
func (r *refAssoc) sameAs(a *assoc) (uint64, []refEntry, bool) {
	for s := uint64(0); s < a.nsets; s++ {
		set := a.ents[int(s)*a.wspan : int(s+1)*a.wspan]
		var got []refEntry
		var stamps []uint64
		for w := 0; w < len(set); w += 3 {
			if set[w] != 0 {
				got = append(got, refEntry{set[w] - 1, set[w+1]})
				stamps = append(stamps, set[w+2])
			}
		}
		order := make([]int, len(got))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(i, j int) int { return int(stamps[j]) - int(stamps[i]) })
		sorted := make([]refEntry, len(got))
		for i, k := range order {
			sorted[i] = got[k]
		}
		if !slices.Equal(sorted, r.sets[s]) {
			return s, sorted, false
		}
	}
	return 0, nil, true
}

// refTLB models TLB: two refAssoc levels probed per page size in the
// TLB's order, an L2 hit promoted into the L1.
type refTLB struct {
	l1, l2                 *refAssoc
	l1Hits, l2Hits, misses uint64
}

func (r *refTLB) lookup(va mem.VAddr, asid uint16) (mem.PAddr, mem.PageSize, bool) {
	for _, size := range pageSizes {
		if v, ok := r.l1.lookup(key(va, size, asid)); ok {
			r.l1Hits++
			return frameToPA(v, va, size), size, true
		}
	}
	for _, size := range pageSizes {
		k := key(va, size, asid)
		if v, ok := r.l2.lookup(k); ok {
			r.l2Hits++
			r.l1.insert(k, v)
			return frameToPA(v, va, size), size, true
		}
	}
	r.misses++
	return 0, 0, false
}

func (r *refTLB) insert(va mem.VAddr, pa mem.PAddr, size mem.PageSize, asid uint16) {
	k, frame := key(va, size, asid), uint64(pa)>>size.Shift()
	r.l1.insert(k, frame)
	r.l2.insert(k, frame)
}

func (r *refTLB) invalidate(va mem.VAddr, asid uint16) {
	for _, size := range pageSizes {
		r.l1.invalidate(key(va, size, asid))
		r.l2.invalidate(key(va, size, asid))
	}
}

// refPWC models PWC: one refAssoc per skip level, probed deepest skip
// first.
type refPWC struct {
	byLevel      [5]*refAssoc
	hits, misses uint64
}

func (r *refPWC) lookup(va mem.VAddr, asid uint16) (mem.PAddr, int, bool) {
	for level := 2; level <= 4; level++ {
		if v, ok := r.byLevel[level].lookup(pwcKey(va, level, asid)); ok {
			r.hits++
			return mem.PAddr(v), level - 1, true
		}
	}
	r.misses++
	return 0, 0, false
}

func (r *refPWC) insert(va mem.VAddr, level int, nodePA mem.PAddr, asid uint16) {
	if level >= 2 && level <= 4 {
		r.byLevel[level].insert(pwcKey(va, level, asid), uint64(nodePA))
	}
}

// refNested models NestedCache at 4 KiB page granularity.
type refNested struct {
	a            *refAssoc
	hits, misses uint64
}

func (r *refNested) lookup(gpa mem.PAddr) (mem.PAddr, bool) {
	if v, ok := r.a.lookup(uint64(gpa) >> mem.PageShift4K); ok {
		r.hits++
		return mem.PAddr(v<<mem.PageShift4K | uint64(gpa)&(mem.PageBytes4K-1)), true
	}
	r.misses++
	return 0, false
}

// tlbPool returns n virtual addresses clustered so that 4K, 2M and 1G pages
// overlap: a few 1 GiB regions, a few 2 MiB regions in each, a few pages in
// each of those, at any offset.
func tlbPool(rng *rand.Rand, n int) []mem.VAddr {
	regions := make([]uint64, 1+rng.Intn(3))
	for i := range regions {
		regions[i] = uint64(rng.Intn(1<<17)) << 30 // below 2^47
	}
	pool := make([]mem.VAddr, n)
	for i := range pool {
		va := regions[rng.Intn(len(regions))] + uint64(rng.Intn(4))<<21 + uint64(rng.Intn(6))<<12 + uint64(rng.Intn(mem.PageBytes4K))
		pool[i] = mem.VAddr(va)
	}
	return pool
}

// runTLBModelOps decodes an 8-byte header (two TLB level geometries, three
// PWC level sizes, a nested-cache size, a pool seed and an ASID spread) and
// then 3-byte ops, and drives a TLB, a PWC and a NestedCache beside their
// models. Geometries run from one set and one way up, with set counts that
// are and are not powers of two. After every op the outcomes, the counters
// and every set's contents in recency order must match.
func runTLBModelOps(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) < 8 {
		return
	}
	l1Ways, l1Sets := 1+int(ops[0]&3), 1+int(ops[0]>>2&7)
	l2Ways, l2Sets := 1+int(ops[1]&15), 1+int(ops[1]>>4)
	tl, err := New(Config{L1Entries: l1Ways * l1Sets, L1Ways: l1Ways, L2Entries: l2Ways * l2Sets, L2Ways: l2Ways})
	if err != nil {
		t.Fatal(err)
	}
	pwc := NewPWCSized(int(ops[2]%9), int(ops[3]%13), int(ops[4]%41))
	nc := NewNestedCacheSized(int(ops[5] % 40))
	rt := &refTLB{l1: newRefAssoc(tl.l1), l2: newRefAssoc(tl.l2)}
	rp := &refPWC{}
	for l := 2; l <= 4; l++ {
		rp.byLevel[l] = newRefAssoc(pwc.byLevel[l])
	}
	rn := &refNested{a: newRefAssoc(nc.a)}
	rng := rand.New(rand.NewSource(int64(ops[6])))
	pool := tlbPool(rng, 4+int(ops[6])%29)
	asids := []uint16{1, 0, 2, 100, 1023}[:1+int(ops[7])%5]

	check := func(op int) {
		t.Helper()
		if tl.L1Hits != rt.l1Hits || tl.L2Hits != rt.l2Hits || tl.Misses != rt.misses {
			t.Fatalf("op %d: TLB L1Hits/L2Hits/Misses = %d/%d/%d, model %d/%d/%d",
				op, tl.L1Hits, tl.L2Hits, tl.Misses, rt.l1Hits, rt.l2Hits, rt.misses)
		}
		if pwc.Hits != rp.hits || pwc.Misses != rp.misses {
			t.Fatalf("op %d: PWC Hits/Misses = %d/%d, model %d/%d", op, pwc.Hits, pwc.Misses, rp.hits, rp.misses)
		}
		if nc.Hits != rn.hits || nc.Misses != rn.misses {
			t.Fatalf("op %d: NestedCache Hits/Misses = %d/%d, model %d/%d", op, nc.Hits, nc.Misses, rn.hits, rn.misses)
		}
		pairs := []struct {
			name string
			a    *assoc
			r    *refAssoc
		}{
			{"TLB L1", tl.l1, rt.l1}, {"TLB L2", tl.l2, rt.l2},
			{"PWC L2", pwc.byLevel[2], rp.byLevel[2]}, {"PWC L3", pwc.byLevel[3], rp.byLevel[3]},
			{"PWC L4", pwc.byLevel[4], rp.byLevel[4]}, {"NestedCache", nc.a, rn.a},
		}
		for _, p := range pairs {
			if s, got, ok := p.r.sameAs(p.a); !ok {
				t.Fatalf("op %d: %s set %d holds %v (MRU first), model %v", op, p.name, s, got, p.r.sets[s])
			}
		}
	}
	for i := 8; i+3 <= len(ops); i += 3 {
		op, a, b := ops[i], int(ops[i+1]), int(ops[i+2])
		va := pool[a%len(pool)]
		asid := asids[b%len(asids)]
		size := pageSizes[b/8%3]
		pa := mem.PAddr(uint64(a*b+1) << 30)
		switch op % 11 {
		case 0, 1:
			gpa, gsize, gok := tl.Lookup(va, asid)
			wpa, wsize, wok := rt.lookup(va, asid)
			if gpa != wpa || gsize != wsize || gok != wok {
				t.Fatalf("op %d: Lookup(%#x, %d) = %#x %v %v, model %#x %v %v", i, va, asid, gpa, gsize, gok, wpa, wsize, wok)
			}
		case 2:
			vas := make([]mem.VAddr, b%9)
			for k := range vas {
				vas[k] = pool[(a+k*(b+1))%len(pool)]
			}
			pas := make([]mem.PAddr, len(vas))
			hits, missProbed := tl.LookupBatch(vas, asid, pas)
			want := 0
			for want < len(vas) {
				wpa, _, ok := rt.lookup(vas[want], asid)
				if !ok {
					break
				}
				if pas[want] != wpa {
					t.Fatalf("op %d: LookupBatch pas[%d] = %#x, model %#x", i, want, pas[want], wpa)
				}
				want++
			}
			if hits != want || missProbed != (want < len(vas)) {
				t.Fatalf("op %d: LookupBatch = %d hits, missProbed %v; model %d of %d", i, hits, missProbed, want, len(vas))
			}
		case 3, 4:
			tl.Insert(va, pa, size, asid)
			rt.insert(va, pa, size, asid)
		case 5:
			tl.Invalidate(va, asid)
			rt.invalidate(va, asid)
		case 6:
			if b%4 == 0 {
				tl.Flush()
				rt.l1.flush()
				rt.l2.flush()
			}
		case 7:
			gpa, glevel, gok := pwc.Lookup(va, asid)
			wpa, wlevel, wok := rp.lookup(va, asid)
			if gpa != wpa || glevel != wlevel || gok != wok {
				t.Fatalf("op %d: PWC Lookup(%#x, %d) = %#x %d %v, model %#x %d %v", i, va, asid, gpa, glevel, gok, wpa, wlevel, wok)
			}
		case 8:
			level := 1 + b%5
			pwc.Insert(va, level, pa, asid)
			rp.insert(va, level, pa, asid)
			if b%16 == 15 {
				pwc.Flush()
				for l := 2; l <= 4; l++ {
					rp.byLevel[l].flush()
				}
			}
		case 9:
			gpa := mem.PAddr(va)
			got, gok := nc.Lookup(gpa)
			want, wok := rn.lookup(gpa)
			if got != want || gok != wok {
				t.Fatalf("op %d: NestedCache Lookup(%#x) = %#x %v, model %#x %v", i, gpa, got, gok, want, wok)
			}
		case 10:
			if b%16 == 15 {
				nc.Flush()
				rn.a.flush()
				continue
			}
			nc.Insert(mem.PAddr(va), pa)
			rn.a.insert(uint64(va)>>mem.PageShift4K, uint64(pa)>>mem.PageShift4K)
		}
		check(i)
	}
}

func TestTLBMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 300; run++ {
		ops := make([]byte, 8+3*(50+rng.Intn(400)))
		rng.Read(ops)
		runTLBModelOps(t, ops)
	}
}

func FuzzTLBMatchesModel(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 1, 1, 1, 2, 1, 0, 3, 0, 0, 3, 1, 0, 3, 2, 0, 5, 0, 0, 3, 2, 0, 0, 0, 0})
	f.Add([]byte{0x1f, 0x2b, 8, 12, 40, 39, 7, 4, 3, 5, 9, 0, 1, 2, 2, 3, 4, 7, 8, 9, 8, 9, 7, 9, 1, 2, 10, 5, 5, 9, 5, 5})
	f.Add([]byte{0x0b, 0xa5, 2, 4, 32, 38, 200, 2, 4, 7, 3, 1, 7, 3, 2, 9, 9, 6, 0, 0, 5, 7, 9, 0, 7, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runTLBModelOps(t, ops)
	})
}

// TestInsertExistingKeyBehindHole pins the re-insert of a key that sits
// above an invalidated way: the existing way is refreshed and no second
// copy fills the hole.
func TestInsertExistingKeyBehindHole(t *testing.T) {
	a, err := newAssoc(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 3; k++ {
		a.insert(k, k*10)
	}
	a.invalidate(1)
	a.insert(3, 33)
	copies := 0
	for w := 0; w < len(a.ents); w += 3 {
		if a.ents[w] == 3+1 {
			copies++
		}
	}
	if copies != 1 {
		t.Fatalf("key 3 held in %d ways after re-insert, want 1", copies)
	}
	if v, ok := a.lookup(3); !ok || v != 33 {
		t.Fatalf("lookup(3) = %d %v, want 33 true", v, ok)
	}
	// The set has two free ways: 4 and 5 both fit beside 2 and 3.
	a.insert(4, 40)
	a.insert(5, 50)
	for _, k := range []uint64{2, 3, 4, 5} {
		if _, ok := a.lookup(k); !ok {
			t.Fatalf("key %d evicted from a set that never overfilled", k)
		}
	}
}
