package mem

import (
	"math/rand"
	"testing"
)

// The FrameIndex reference model is a plain map holding the non-zero
// entries. An op stream drives two (index, model) sides; a Clone op replaces
// side 1 with a clone of side 0, after which both sides are driven
// independently, so any storage the clone shares with its source shows up
// as a mismatch on the other side.

type indexSide struct {
	x     FrameIndex[uint64]
	model map[uint64]uint64
}

// frameFor maps two fuzz bytes to a frame in one of the classes the index
// treats differently: low frames, both sides of chunk boundaries, the
// directory's growth edge, both sides of the 1<<22 map fallback, and frames
// far above it.
func frameFor(class, off byte) uint64 {
	d := uint64(off)
	switch class % 6 {
	case 0:
		return d
	case 1: // straddle a chunk boundary: chunk (d>>2), offsets −2..+1
		return (d>>2)*frameChunk + frameChunk - 2 + d&3
	case 2: // sparse chunks spread over the dense range
		return d * 16411
	case 3: // the last dense chunks and the first map frames
		return frameDirLimit*frameChunk - 128 + d
	case 4: // far above the limit
		return 1<<40 + d*frameChunk
	default:
		return 1<<51 - d
	}
}

func runFrameIndexOps(t *testing.T, ops []byte) {
	t.Helper()
	sides := [2]*indexSide{
		{model: map[uint64]uint64{}},
		{model: map[uint64]uint64{}},
	}
	check := func(s *indexSide, where string) {
		t.Helper()
		if s.x.Len() != len(s.model) {
			t.Fatalf("%s: Len = %d, model holds %d", where, s.x.Len(), len(s.model))
		}
		seen := map[uint64]bool{}
		last, dense := uint64(0), true
		s.x.Range(func(f, v uint64) {
			if seen[f] {
				t.Fatalf("%s: Range visited frame %#x twice", where, f)
			}
			seen[f] = true
			if want := s.model[f]; v != want || v == 0 {
				t.Fatalf("%s: Range(%#x) = %#x, model %#x", where, f, v, want)
			}
			if f < frameDirLimit*frameChunk {
				if !dense || (len(seen) > 1 && f <= last) {
					t.Fatalf("%s: chunked frame %#x out of order after %#x", where, f, last)
				}
				last = f
			} else {
				dense = false
			}
		})
		if len(seen) != len(s.model) {
			t.Fatalf("%s: Range visited %d frames, model holds %d", where, len(seen), len(s.model))
		}
		for f, v := range s.model {
			if got := s.x.Get(f); got != v {
				t.Fatalf("%s: Get(%#x) = %#x, model %#x", where, f, got, v)
			}
		}
	}
	for i := 0; i+4 <= len(ops); i += 4 {
		op, class, off, val := ops[i], ops[i+1], ops[i+2], ops[i+3]
		s := sides[op&1]
		f := frameFor(class, off)
		switch (op >> 1) % 4 {
		case 0, 1: // set; a zero value deletes
			v := uint64(val)
			if val%5 == 0 {
				v = 0
			}
			s.x.Set(f, v)
			if v == 0 {
				delete(s.model, f)
			} else {
				s.model[f] = v
			}
		case 2:
			if got := s.x.Get(f); got != s.model[f] {
				t.Fatalf("op %d: Get(%#x) = %#x, model %#x", i/4, f, got, s.model[f])
			}
		case 3:
			check(sides[0], "before clone")
			c := &indexSide{x: sides[0].x.Clone(), model: make(map[uint64]uint64, len(sides[0].model))}
			for k, v := range sides[0].model {
				c.model[k] = v
			}
			sides[1] = c
			check(c, "fresh clone")
		}
	}
	check(sides[0], "side 0 at end")
	check(sides[1], "side 1 at end")
}

func TestFrameIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 200; run++ {
		ops := make([]byte, 4*(50+rng.Intn(400)))
		rng.Read(ops)
		runFrameIndexOps(t, ops)
	}
}

// TestFrameIndexStoresSparsely pins the point of the chunking: entries far
// apart allocate a chunk each, not a frame-number-sized array, and zero
// writes allocate nothing.
func TestFrameIndexStoresSparsely(t *testing.T) {
	var x FrameIndex[uint64]
	x.Set(7, 0)
	x.Set(1<<21, 0)
	if len(x.dir) != 0 {
		t.Fatalf("zero writes grew the directory to %d", len(x.dir))
	}
	x.Set(1<<21, 1)
	x.Set(3, 2)
	chunks := 0
	for _, ch := range x.dir {
		if ch != nil {
			chunks++
		}
	}
	if chunks != 2 {
		t.Fatalf("2 entries in 2 chunks allocated %d chunks", chunks)
	}
}

func FuzzFrameIndex(f *testing.F) {
	f.Add([]byte{0, 1, 3, 9, 2, 1, 3, 0, 6, 0, 0, 0, 1, 1, 4, 7, 4, 3, 200, 11})
	f.Add([]byte{0, 3, 127, 1, 0, 3, 128, 2, 0, 4, 9, 3, 6, 0, 0, 0, 1, 3, 128, 0, 0, 3, 127, 5, 5, 3, 128, 0})
	f.Add([]byte{0, 5, 1, 1, 0, 2, 255, 2, 6, 9, 9, 9, 0, 5, 1, 0, 1, 2, 255, 4, 4, 5, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runFrameIndexOps(t, ops)
	})
}
