package phys

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmt/internal/mem"
)

// allocFramesLoop is the reference AllocFrames: one AllocFrame per slot,
// stopping at the first failure.
func allocFramesLoop(a *Allocator, kind Kind, out []mem.PAddr) (int, error) {
	for i := range out {
		pa, err := a.AllocFrame(kind)
		if err != nil {
			return i, err
		}
		out[i] = pa
	}
	return len(out), nil
}

// diffAllocators compares everything an allocation can change: Stats, the
// free-frame count, the block map, every frame's kind and the exact
// contents of every free stack, stale entries included. Both sides must
// also pass Audit.
func diffAllocators(a, b *Allocator) error {
	if a.Stats != b.Stats || a.freeFrames != b.freeFrames {
		return fmt.Errorf("Stats %+v free %d vs %+v free %d", a.Stats, a.freeFrames, b.Stats, b.freeFrames)
	}
	if i := firstDiff(a.blockOrder, b.blockOrder); i >= 0 {
		return fmt.Errorf("blockOrder[%d] = %d vs %d", i, a.blockOrder[i], b.blockOrder[i])
	}
	if i := firstDiff(a.kind, b.kind); i >= 0 {
		return fmt.Errorf("kind[%d] = %v vs %v", i, a.kind[i], b.kind[i])
	}
	for o := range a.freeStacks {
		if !slices.Equal(a.freeStacks[o], b.freeStacks[o]) {
			return fmt.Errorf("order-%d free stack %v vs %v", o, a.freeStacks[o], b.freeStacks[o])
		}
	}
	if err := a.Audit(); err != nil {
		return err
	}
	return b.Audit()
}

func firstDiff[T comparable](a, b []T) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// framesState owns a fragmented allocator and what it holds: tracked
// movable frames (which Compact and AllocContig may migrate) and pinned
// blocks and contiguous runs.
type framesState struct {
	a    *Allocator
	rel  *trackingRelocator
	held []heldBlock
	// compactions counts frees after which some free stack was shorter
	// than before: a free only pushes, so only pushFree's compaction
	// shortens a stack.
	compactions int
}

type heldBlock struct {
	pa     mem.PAddr
	frames int
	order  int // -1 for a contiguous run
}

func newFramesState(rng *rand.Rand) *framesState {
	var frames int
	switch rng.Intn(3) {
	case 0:
		frames = 8 + rng.Intn(57) // tiny: stale entries quickly pass the compaction bound
	case 1:
		frames = 64 + rng.Intn(1200)
	default:
		frames = 1024 * (1 + rng.Intn(4))
	}
	s := &framesState{a: New(0, frames), rel: newTrackingRelocator()}
	s.a.SetRelocator(s.rel)
	if rng.Intn(4) == 0 {
		s.a.Fragment(rng, 4, 0.9)
	}
	for i := rng.Intn(150); i > 0; i-- {
		s.churn(rng)
	}
	return s
}

// churn applies one random operation: pins, movable frames, contiguous
// runs (whose window path and in-place growth carve frames and leave stale
// stack entries), frees that coalesce, compaction, and a frame-by-frame
// release of a fresh contiguous run, which stacks one stale entry per
// coalesce without popping the stacks below, in rounds.
func (s *framesState) churn(rng *rand.Rand) {
	a := s.a
	switch op := rng.Intn(10); {
	case op == 0:
		order := rng.Intn(5)
		if pa, err := a.Alloc(order, Kind(2+rng.Intn(2))); err == nil {
			s.held = append(s.held, heldBlock{pa, 1 << order, order})
		}
	case op == 1:
		if pa, err := a.AllocFrame(KindMovable); err == nil {
			s.rel.add(pa)
		}
	case op == 2:
		n := 1 + rng.Intn(min(300, a.TotalFrames()))
		if pa, err := a.AllocContig(n, KindPageTable); err == nil {
			s.held = append(s.held, heldBlock{pa, n, -1})
		}
	case op == 3 && len(s.held) > 0:
		b := &s.held[rng.Intn(len(s.held))]
		if extra := 1 + rng.Intn(16); b.order < 0 && a.ExpandContigInPlace(b.pa, b.frames, extra) {
			b.frames += extra
		}
	case op == 4:
		a.Compact()
	case op == 5:
		// Each round pushes n/2 order-0 heads that the next round's
		// coalescing leaves stale, and AllocContig's buddy path pops no
		// stack below order log2(n): in a tiny zone the order-0 stack
		// passes its bound within a few rounds.
		n := 1 << rng.Intn(6)
		for round := rng.Intn(16); round >= 0; round-- {
			pa, err := a.AllocContig(n, KindUnmovable)
			if err != nil {
				break
			}
			for i := range n {
				s.freeing(func() { a.FreeContig(pa+mem.PAddr(i)<<mem.PageShift4K, 1) })
			}
		}
	case (op == 6 || op == 7) && len(s.held) > 0:
		i := rng.Intn(len(s.held))
		b := s.held[i]
		s.held[i] = s.held[len(s.held)-1]
		s.held = s.held[:len(s.held)-1]
		s.freeing(func() {
			if b.order >= 0 {
				a.Free(b.pa, b.order)
			} else {
				a.FreeContig(b.pa, b.frames)
			}
		})
	case len(s.rel.frames) > 0:
		s.freeing(func() {
			for i := 1 + rng.Intn(8); i > 0 && len(s.rel.frames) > 0; i-- {
				a.FreeFrame(s.rel.removeAt(rng.Intn(len(s.rel.frames))))
			}
		})
	}
}

// freeing runs frees and counts a compaction when some free stack ends
// shorter than it began.
func (s *framesState) freeing(frees func()) {
	var pre [MaxOrder + 1]int
	for o, stack := range s.a.freeStacks {
		pre[o] = len(stack)
	}
	frees()
	for o, stack := range s.a.freeStacks {
		if len(stack) < pre[o] {
			s.compactions++
			return
		}
	}
}

// batchSize picks a request that crosses block edges: zero, around a power
// of two, around the free-frame count (an OOM part-way when just above it),
// or anything up to 600.
func batchSize(rng *rand.Rand, free int) int {
	switch rng.Intn(5) {
	case 0:
		return rng.Intn(3)
	case 1:
		return max(0, 1<<rng.Intn(10)+rng.Intn(3)-1)
	case 2:
		return max(0, free+rng.Intn(5)-2)
	case 3:
		return free + 1 + rng.Intn(40)
	}
	return rng.Intn(601)
}

// checkAllocFramesCase builds one fragmented state from seed and, round
// after round, runs AllocFrames on one clone and the AllocFrame loop on
// another, requiring the same frames, count, error and state after every
// call. It returns how many calls ran out of memory after allocating at
// least one frame, and how many compactions the churn saw.
func checkAllocFramesCase(t *testing.T, seed int64) (midOOMs, compactions int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := newFramesState(rng)
	for round := 0; round < 8; round++ {
		kind := KindMovable
		switch rng.Intn(8) {
		case 0:
			kind = KindPageTable
		case 1:
			if rng.Intn(4) == 0 {
				kind = KindFree
			}
		}
		n := batchSize(rng, s.a.FreeFrames())
		batch, loop := s.a.Clone(), s.a.Clone()
		got, want := make([]mem.PAddr, n), make([]mem.PAddr, n)
		gotN, gotErr := batch.AllocFrames(kind, got)
		wantN, wantErr := allocFramesLoop(loop, kind, want)
		where := fmt.Sprintf("seed %d round %d: AllocFrames(%v, %d) on %d free of %d", seed, round, kind, n, s.a.FreeFrames(), s.a.TotalFrames())
		if gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s = %d, %v; loop %d, %v", where, gotN, gotErr, wantN, wantErr)
		}
		if !slices.Equal(got[:gotN], want[:wantN]) {
			t.Fatalf("%s: frames %v, loop %v", where, got[:gotN], want[:wantN])
		}
		if err := diffAllocators(batch, loop); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if gotErr != nil && gotN > 0 {
			midOOMs++
		}
		// Continue from the batch side; its frames are movable data.
		s.a = batch
		s.a.SetRelocator(s.rel)
		if kind == KindMovable {
			for _, pa := range got[:gotN] {
				s.rel.add(pa)
			}
		} else if kind == KindPageTable {
			for _, pa := range got[:gotN] {
				s.held = append(s.held, heldBlock{pa, 1, 0})
			}
		}
		for i := rng.Intn(12); i > 0; i-- {
			s.churn(rng)
		}
	}
	return midOOMs, s.compactions
}

func TestAllocFramesMatchesAllocFrame(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 100
	}
	midOOMs, compactions := 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		o, c := checkAllocFramesCase(t, seed)
		midOOMs += o
		compactions += c
	}
	if midOOMs == 0 {
		t.Fatal("no batch ran out of memory part-way: the short-batch path went untested")
	}
	if compactions == 0 {
		t.Fatal("no free-stack compaction fired: compacted stacks went untested")
	}
	t.Logf("%d part-way OOMs, %d compactions", midOOMs, compactions)
}

func FuzzAllocFramesMatchesAllocFrame(f *testing.F) {
	for _, seed := range []int64{0, 3, 17, 1 << 33} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkAllocFramesCase(t, seed) })
}
