package mem

import "maps"

// FrameIndex maps 4 KiB frame numbers to values of T; the zero T means
// "absent". Frames below 1<<22 (16 GiB, beyond any configured machine) live
// in 512-frame chunks reached through a chunk directory, each chunk
// allocated on its first non-zero write, so an index costs memory in
// proportion to the frame ranges it holds rather than to the highest frame
// number it has seen. A lookup is one load from the small directory plus one
// from the chunk. Frames above the limit (property tests, sentinel
// placements) fall back to a map instead of forcing a huge directory.
type FrameIndex[T comparable] struct {
	dir    []*[frameChunk]T // indexed by frame >> frameChunkShift; nil = no chunk
	sparse map[uint64]T
	n      int // non-zero entries
}

const (
	frameChunkShift = 9
	frameChunk      = 1 << frameChunkShift
	frameDirLimit   = 1 << (22 - frameChunkShift) // chunks below the map fallback
)

// Get returns the value stored for frame f, or the zero T.
func (x *FrameIndex[T]) Get(f uint64) T {
	if c := f >> frameChunkShift; c < uint64(len(x.dir)) {
		if ch := x.dir[c]; ch != nil {
			return ch[f&(frameChunk-1)]
		}
		var zero T
		return zero
	}
	return x.sparse[f] // zero for a chunked frame past the directory: the map holds none
}

// Set stores v for frame f; storing the zero T deletes the entry.
func (x *FrameIndex[T]) Set(f uint64, v T) {
	var zero T
	c := f >> frameChunkShift
	if c >= frameDirLimit {
		_, had := x.sparse[f]
		switch {
		case v == zero:
			if had {
				delete(x.sparse, f)
				x.n--
			}
			return
		case x.sparse == nil:
			x.sparse = make(map[uint64]T)
		}
		if !had {
			x.n++
		}
		x.sparse[f] = v
		return
	}
	if c >= uint64(len(x.dir)) {
		if v == zero {
			return
		}
		if c >= uint64(cap(x.dir)) {
			// Amortized doubling: frames arrive mostly ascending.
			grown := make([]*[frameChunk]T, c+1, min(2*(c+1), frameDirLimit))
			copy(grown, x.dir)
			x.dir = grown
		}
		x.dir = x.dir[:c+1]
	}
	ch := x.dir[c]
	if ch == nil {
		if v == zero {
			return
		}
		ch = new([frameChunk]T)
		x.dir[c] = ch
	}
	i := f & (frameChunk - 1)
	if old := ch[i]; old == zero && v != zero {
		x.n++
	} else if old != zero && v == zero {
		x.n--
	}
	ch[i] = v
}

// Len returns the number of non-zero entries.
func (x *FrameIndex[T]) Len() int { return x.n }

// Range calls fn for every non-zero entry: chunked frames in ascending
// order, visiting allocated chunks only, then map frames in no set order.
func (x *FrameIndex[T]) Range(fn func(f uint64, v T)) {
	var zero T
	for c, ch := range x.dir {
		if ch == nil {
			continue
		}
		for i, v := range ch {
			if v != zero {
				fn(uint64(c)<<frameChunkShift|uint64(i), v)
			}
		}
	}
	for f, v := range x.sparse {
		fn(f, v)
	}
}

// Clone returns a copy sharing no storage with x. Every allocated chunk is
// copied into one backing allocation.
func (x *FrameIndex[T]) Clone() FrameIndex[T] {
	c := FrameIndex[T]{n: x.n, sparse: maps.Clone(x.sparse)}
	if len(x.dir) == 0 {
		return c
	}
	chunks := 0
	for _, ch := range x.dir {
		if ch != nil {
			chunks++
		}
	}
	backing := make([][frameChunk]T, chunks)
	c.dir = make([]*[frameChunk]T, len(x.dir))
	for i, ch := range x.dir {
		if ch != nil {
			backing[0] = *ch
			c.dir[i] = &backing[0]
			backing = backing[1:]
		}
	}
	return c
}
