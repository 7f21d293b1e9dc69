// Package phys implements the physical-memory substrate of the DMT
// reproduction: a buddy page-frame allocator with per-order free lists,
// contiguous-range allocation in the style of Linux's alloc_contig_pages,
// movability classes, page migration, compaction, and a free-memory
// fragmentation index.
//
// TEAs (§3) require physically-contiguous memory; §4.3 and §7 of the paper
// describe how DMT-Linux leans on the contiguous allocator and on
// defragmentation to satisfy that requirement, splitting VMA-to-TEA mappings
// when contiguity cannot be found. This package provides exactly those
// mechanics so the TEA manager above it behaves like the paper's.
package phys

import (
	"errors"
	"fmt"

	"dmt/internal/mem"
)

// Kind classifies the owner of an allocated frame, mirroring Linux's
// migrate types. Movable frames can be relocated during contiguous
// allocation and compaction; unmovable and page-table frames cannot.
type Kind uint8

const (
	KindFree Kind = iota
	KindMovable
	KindUnmovable
	KindPageTable
)

func (k Kind) String() string {
	switch k {
	case KindFree:
		return "free"
	case KindMovable:
		return "movable"
	case KindUnmovable:
		return "unmovable"
	case KindPageTable:
		return "pagetable"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MaxOrder is the largest buddy order: 2^10 frames = 4 MiB blocks, matching
// Linux's default MAX_ORDER-1 granularity closely enough for TEA sizing.
const MaxOrder = 10

// ErrNoMemory is returned when the allocator cannot satisfy a request.
var ErrNoMemory = errors.New("phys: out of memory")

// ErrNoContig is returned when no contiguous range can be assembled even
// after migrating movable pages; callers (the TEA manager) respond by
// splitting the VMA-to-TEA mapping (§4.2.2).
var ErrNoContig = errors.New("phys: no contiguous range available")

// Relocator is notified when the allocator migrates a movable frame; the
// owner must rewrite any translation structures that reference old. The
// kernel layer registers one so data-page migration updates PTEs.
type Relocator interface {
	Relocate(old, new mem.PAddr) bool
}

// Allocator is a buddy allocator managing a contiguous physical region.
// It is not safe for concurrent use; the simulated kernel serializes calls
// the way a zone lock would.
type Allocator struct {
	base   mem.PAddr
	frames uint32

	// blockOrder[f] is the order of the free block headed at frame f,
	// or -1 when f is allocated or interior to a free block.
	blockOrder []int8
	// kind[f] records the owner class of frame f: KindFree exactly when f
	// belongs to a free block, listed or detached by carveFrame.
	kind []Kind

	// freeStacks holds candidate free-block heads per order with lazy
	// deletion: entries are validated against blockOrder when popped,
	// which keeps allocation deterministic (LIFO) and O(1) amortized.
	freeStacks [MaxOrder + 1][]uint32

	freeFrames uint32
	relocator  Relocator

	// Stats counts allocator work for the §6.3 overhead experiments.
	Stats Stats
}

// Stats aggregates allocator activity.
type Stats struct {
	Allocs      uint64
	Frees       uint64
	Splits      uint64
	Coalesces   uint64
	Migrations  uint64
	ContigScans uint64
	// ContigAllocs counts successful AllocContig calls, the denominator of
	// the aging scenario's defrag-cost metric (migrations per contig alloc).
	ContigAllocs uint64
}

// New creates an allocator managing frames 4-KiB frames starting at base.
// base must be 4 KiB-aligned.
func New(base mem.PAddr, frames int) *Allocator {
	if !mem.IsAligned(uint64(base), mem.PageBytes4K) {
		panic("phys: unaligned base")
	}
	if frames <= 0 {
		panic("phys: non-positive frame count")
	}
	a := &Allocator{
		base:       base,
		frames:     uint32(frames),
		blockOrder: make([]int8, frames),
		kind:       make([]Kind, frames), // all KindFree, the zero Kind
	}
	for i := range a.blockOrder {
		a.blockOrder[i] = -1
	}
	// Seed free lists with maximal aligned blocks.
	f := uint32(0)
	for f < a.frames {
		order := MaxOrder
		for order > 0 && (f&(1<<order-1) != 0 || f+1<<order > a.frames) {
			order--
		}
		a.pushFree(f, order)
		f += 1 << order
	}
	a.freeFrames = a.frames
	return a
}

// SetRelocator registers the migration callback used by AllocContig and
// Compact. Without one, movable frames are treated as unmovable.
func (a *Allocator) SetRelocator(r Relocator) { a.relocator = r }

// Base returns the first managed physical address.
func (a *Allocator) Base() mem.PAddr { return a.base }

// TotalFrames returns the number of managed 4 KiB frames.
func (a *Allocator) TotalFrames() int { return int(a.frames) }

// FreeFrames returns the number of currently free 4 KiB frames.
func (a *Allocator) FreeFrames() int { return int(a.freeFrames) }

// FrameKind returns the owner class of the frame containing pa.
func (a *Allocator) FrameKind(pa mem.PAddr) Kind {
	return a.kind[a.frameOf(pa)]
}

func (a *Allocator) frameOf(pa mem.PAddr) uint32 {
	if pa < a.base {
		panic("phys: address below managed region")
	}
	f := uint64(pa-a.base) >> mem.PageShift4K
	if f >= uint64(a.frames) {
		panic("phys: address beyond managed region")
	}
	return uint32(f)
}

func (a *Allocator) addrOf(f uint32) mem.PAddr {
	return a.base + mem.PAddr(uint64(f)<<mem.PageShift4K)
}

// pushFree lists the block of 2^order frames headed at f as free. It does
// not mark the frames: every frame of the block must already be KindFree.
// That holds for both halves of a split free block (Alloc, AllocFrames,
// carveFrame), and freeBlock marks only the frames it frees before
// coalescing them with buddies that are already marked — so a split or a
// coalesce costs O(order), not O(2^order) stores.
func (a *Allocator) pushFree(f uint32, order int) {
	a.blockOrder[f] = int8(order)
	stack := append(a.freeStacks[order], f)
	// Lazy deletion leaves stale entries behind; over a multi-million-event
	// aging run (carveFrame detaches heads without popping them) the stacks
	// would otherwise grow without bound. Compact once a stack exceeds the
	// maximum possible number of live heads at this order plus slack.
	if len(stack) > int(a.frames>>uint(order))+64 {
		stack = a.compactStack(stack, order)
	}
	a.freeStacks[order] = stack
}

// compactStack drops entries invalidated by lazy deletion and collapses
// duplicates of still-valid heads, keeping only the newest occurrence of
// each. Pops take the newest entry first and claiming a head invalidates
// its older duplicates, so the sequence of successful pops — and therefore
// allocation determinism — is unchanged.
func (a *Allocator) compactStack(stack []uint32, order int) []uint32 {
	seen := make(map[uint32]struct{}, len(stack))
	kept := make([]uint32, 0, len(stack))
	for i := len(stack) - 1; i >= 0; i-- {
		f := stack[i]
		if a.blockOrder[f] != int8(order) {
			continue
		}
		if _, dup := seen[f]; dup {
			continue
		}
		seen[f] = struct{}{}
		kept = append(kept, f)
	}
	// kept is newest-first; restore stack order (oldest at the bottom).
	out := stack[:0]
	for i := len(kept) - 1; i >= 0; i-- {
		out = append(out, kept[i])
	}
	return out
}

// popFree removes and returns a valid free block head of the given order,
// or (0, false) when none exists.
func (a *Allocator) popFree(order int) (uint32, bool) {
	stack := a.freeStacks[order]
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a.blockOrder[f] == int8(order) {
			a.freeStacks[order] = stack
			return f, true
		}
	}
	a.freeStacks[order] = stack
	return 0, false
}

// popAtLeast removes and returns the head and order of the smallest listed
// free block of at least the given order, draining the stale entries of
// every stack it passes; ok is false when no such block exists, and then
// every stack from order up has been drained.
func (a *Allocator) popAtLeast(order int) (f uint32, o int, ok bool) {
	for o = order; o <= MaxOrder; o++ {
		if f, ok = a.popFree(o); ok {
			return f, o, true
		}
	}
	return 0, 0, false
}

// Alloc allocates a 2^order-frame block and returns its physical address.
func (a *Allocator) Alloc(order int, kind Kind) (mem.PAddr, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("phys: invalid order %d", order)
	}
	if kind == KindFree {
		return 0, errors.New("phys: cannot allocate KindFree")
	}
	f, o, ok := a.popAtLeast(order)
	if !ok {
		return 0, ErrNoMemory
	}
	// Split down to the requested order, freeing upper halves.
	for cur := o; cur > order; cur-- {
		half := uint32(1) << (cur - 1)
		a.pushFree(f+half, cur-1)
		a.Stats.Splits++
	}
	a.claim(f, uint32(1)<<order, kind)
	a.Stats.Allocs++
	return a.addrOf(f), nil
}

// AllocFrame allocates a single 4 KiB frame.
func (a *Allocator) AllocFrame(kind Kind) (mem.PAddr, error) {
	return a.Alloc(0, kind)
}

// AllocFrames fills out with single 4 KiB frames and returns how many it
// allocated: len(out), or fewer with ErrNoMemory. It leaves exactly the
// state that len(out) successive AllocFrame calls leave — the same frames
// in the same order, the same Stats, block map and free stacks — and stops
// where the first of them would fail.
//
// It does in one step what those calls do frame by frame. Popping a block
// of order o drains every stack below o, so the calls after it carve the
// block in ascending frame order: each pops the lowest free half that the
// previous split pushed, and no stack below o holds anything else. After t
// frames the rest of the block is one free block for each zero bit k < o of
// t-1, at offset ((t-1)>>k|1)<<k, alone on its stack; the carve made
// t+r-1 splits for r such blocks (every split adds a block, every claim
// takes one, and one block remains per rest block). A block costs O(o)
// stack work, not a pop, push and scan per frame.
func (a *Allocator) AllocFrames(kind Kind, out []mem.PAddr) (int, error) {
	if len(out) == 0 {
		return 0, nil
	}
	if kind == KindFree {
		return 0, errors.New("phys: cannot allocate KindFree")
	}
	n := 0
	for n < len(out) {
		f, o, ok := a.popAtLeast(0)
		if !ok {
			return n, ErrNoMemory
		}
		t := uint32(min(len(out)-n, 1<<o))
		for k := o - 1; k >= 0; k-- {
			if (t-1)>>k&1 == 0 {
				a.pushFree(f+((t-1)>>k|1)<<k, k)
				a.Stats.Splits++
			}
		}
		a.Stats.Splits += uint64(t) - 1
		a.Stats.Allocs += uint64(t)
		a.claim(f, t, kind)
		for i := range t {
			out[n] = a.addrOf(f + i)
			n++
		}
	}
	return n, nil
}

// claim marks the n free frames from f allocated to kind. f heads a free
// block or a detached frame; the frames after it are interior to that
// block, so their blockOrder is already -1.
func (a *Allocator) claim(f, n uint32, kind Kind) {
	a.blockOrder[f] = -1
	for i := f; i < f+n; i++ {
		a.kind[i] = kind
	}
	a.freeFrames -= n
}

// Free releases a block previously returned by Alloc with the same order.
func (a *Allocator) Free(pa mem.PAddr, order int) {
	f := a.frameOf(pa)
	n := uint32(1) << order
	if f&(n-1) != 0 {
		panic("phys: Free of unaligned block")
	}
	for i := f; i < f+n; i++ {
		if a.kind[i] == KindFree {
			panic(fmt.Sprintf("phys: double free of frame %d", i))
		}
	}
	a.freeFrames += n
	a.Stats.Frees++
	a.freeBlock(f, order)
}

// freeBlock frees an allocated block, marking its frames, and coalesces
// it with its buddy while possible.
func (a *Allocator) freeBlock(f uint32, order int) {
	for i := f; i < f+1<<order; i++ {
		a.kind[i] = KindFree
	}
	for order < MaxOrder {
		buddy := f ^ (1 << order)
		if buddy >= a.frames || a.blockOrder[buddy] != int8(order) {
			break
		}
		// Detach the buddy (lazy deletion handles the stack entry).
		a.blockOrder[buddy] = -1
		if buddy < f {
			f = buddy
		}
		order++
		a.Stats.Coalesces++
	}
	a.pushFree(f, order)
}

// FreeFrame releases a single 4 KiB frame.
func (a *Allocator) FreeFrame(pa mem.PAddr) { a.Free(pa, 0) }
