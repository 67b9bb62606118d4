// Package memsim simulates a CUDA caching allocator of the PyTorch variety:
// memory is requested from the device in segments, segments are split into
// blocks, freed blocks return to per-segment free lists and coalesce with
// free neighbours, and a request that fits no cached block grows the pool.
// An expandable-segments mode (PYTORCH_CUDA_ALLOC_CONF, paper section 5.1)
// lets the last segment grow in place instead of allocating fresh segments.
//
// The paper's chunked-MLP contribution (section 4.4.2) is about exactly the
// fragmentation this allocator model exhibits: long-sequence MLP buffers of
// irregular sizes (bsh, 4bsh, 8bsh/t...) interleaved with stash lifetimes
// carve the pool into unusable holes. The chunked-MLP experiment replays a
// transformer workload's allocation trace with and without chunking and
// reports reserved-versus-allocated inflation.
package memsim

import "fmt"

// Config tunes the allocator.
type Config struct {
	// RoundBytes rounds every request up (PyTorch rounds to 512 B).
	RoundBytes int64
	// SegmentBytes is the granularity of device allocations for large
	// requests (PyTorch uses 20 MiB buckets for small, per-size for big;
	// we use one knob).
	SegmentBytes int64
	// Expandable enables expandable segments: the allocator may extend the
	// most recent segment in place, mimicking virtual-memory stitching.
	Expandable bool
	// CapacityBytes caps total reserved memory; 0 means unlimited. Reaching
	// the cap makes Alloc fail, modeling an OOM.
	CapacityBytes int64
}

// DefaultConfig mirrors the PyTorch caching allocator defaults.
func DefaultConfig() Config {
	return Config{RoundBytes: 512, SegmentBytes: 20 << 20, Expandable: false}
}

// block is a contiguous range inside a segment.
type block struct {
	off, size int64
	free      bool
}

// segment is one device allocation holding blocks.
type segment struct {
	size   int64
	blocks []*block
}

// Allocator is the caching-allocator simulator.
type Allocator struct {
	cfg      Config
	segments []*segment
	live     map[int64]alloc // handle -> location
	next     int64

	reserved      int64
	allocated     int64
	peakReserved  int64
	peakAllocated int64
	failures      int
}

type alloc struct {
	seg *segment
	blk *block
}

// New returns an allocator with the given configuration.
func New(cfg Config) *Allocator {
	if cfg.RoundBytes <= 0 {
		cfg.RoundBytes = 512
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 20 << 20
	}
	return &Allocator{cfg: cfg, live: map[int64]alloc{}}
}

func (a *Allocator) round(n int64) int64 {
	r := a.cfg.RoundBytes
	return (n + r - 1) / r * r
}

// Alloc requests n bytes and returns an opaque handle, or an error when the
// capacity cap is exhausted even after considering a fresh segment.
func (a *Allocator) Alloc(n int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("memsim: non-positive allocation %d", n)
	}
	n = a.round(n)
	// Best-fit over cached free blocks, matching the caching allocator's
	// free-list policy.
	var bestSeg *segment
	var bestBlk *block
	for _, seg := range a.segments {
		for _, blk := range seg.blocks {
			if blk.free && blk.size >= n {
				if bestBlk == nil || blk.size < bestBlk.size {
					bestSeg, bestBlk = seg, blk
				}
			}
		}
	}
	if bestBlk == nil && a.cfg.Expandable && len(a.segments) > 0 {
		// Expandable segments: grow the last segment in place if its tail
		// block is free (virtual memory stitching per GMLake/PyTorch).
		seg := a.segments[len(a.segments)-1]
		tail := seg.blocks[len(seg.blocks)-1]
		if tail.free {
			grow := n - tail.size
			if grow > 0 && a.withinCap(grow) {
				tail.size += grow
				seg.size += grow
				a.reserved += grow
				bestSeg, bestBlk = seg, tail
			}
		}
	}
	if bestBlk == nil {
		// Fresh segment sized to the request bucket.
		segSize := a.cfg.SegmentBytes
		if n > segSize {
			segSize = n
		}
		if !a.withinCap(segSize) {
			a.failures++
			return 0, fmt.Errorf("memsim: out of memory: need %d, reserved %d, cap %d",
				segSize, a.reserved, a.cfg.CapacityBytes)
		}
		seg := &segment{size: segSize, blocks: []*block{{off: 0, size: segSize, free: true}}}
		a.segments = append(a.segments, seg)
		a.reserved += segSize
		bestSeg, bestBlk = seg, seg.blocks[0]
	}
	// Split the block if the remainder is usable.
	if bestBlk.size > n {
		rest := &block{off: bestBlk.off + n, size: bestBlk.size - n, free: true}
		bestBlk.size = n
		idx := indexOf(bestSeg.blocks, bestBlk)
		bestSeg.blocks = append(bestSeg.blocks[:idx+1],
			append([]*block{rest}, bestSeg.blocks[idx+1:]...)...)
	}
	bestBlk.free = false
	a.next++
	h := a.next
	a.live[h] = alloc{seg: bestSeg, blk: bestBlk}
	a.allocated += n
	if a.allocated > a.peakAllocated {
		a.peakAllocated = a.allocated
	}
	if a.reserved > a.peakReserved {
		a.peakReserved = a.reserved
	}
	return h, nil
}

func (a *Allocator) withinCap(extra int64) bool {
	return a.cfg.CapacityBytes <= 0 || a.reserved+extra <= a.cfg.CapacityBytes
}

func indexOf(blocks []*block, b *block) int {
	for i, x := range blocks {
		if x == b {
			return i
		}
	}
	panic("memsim: block not in segment")
}

// Free releases a handle, coalescing with free neighbours.
func (a *Allocator) Free(h int64) error {
	loc, ok := a.live[h]
	if !ok {
		return fmt.Errorf("memsim: double free or unknown handle %d", h)
	}
	delete(a.live, h)
	loc.blk.free = true
	a.allocated -= loc.blk.size
	// Coalesce neighbours.
	blocks := loc.seg.blocks
	idx := indexOf(blocks, loc.blk)
	if idx+1 < len(blocks) && blocks[idx+1].free {
		loc.blk.size += blocks[idx+1].size
		blocks = append(blocks[:idx+1], blocks[idx+2:]...)
	}
	if idx > 0 && blocks[idx-1].free {
		blocks[idx-1].size += loc.blk.size
		blocks = append(blocks[:idx], blocks[idx+1:]...)
	}
	loc.seg.blocks = blocks
	return nil
}

// Stats summarises allocator state.
type Stats struct {
	// ReservedBytes is the device memory held by the allocator.
	ReservedBytes int64
	// AllocatedBytes is the memory currently handed to tensors.
	AllocatedBytes int64
	// PeakReservedBytes and PeakAllocatedBytes are the high-water marks.
	PeakReservedBytes  int64
	PeakAllocatedBytes int64
	// LargestFreeBlock is the biggest single free block — what the next
	// large allocation can actually use.
	LargestFreeBlock int64
	// FreeBlocks counts free-list entries; many small ones mean carving.
	FreeBlocks int
	// Failures counts allocation failures (OOMs).
	Failures int
}

// FragmentationRatio is peak reserved over peak allocated: 1.0 means no
// waste; the paper's motivation for chunked MLP is exactly this ratio
// blowing up for long sequences.
func (s Stats) FragmentationRatio() float64 {
	if s.PeakAllocatedBytes == 0 {
		return 1
	}
	return float64(s.PeakReservedBytes) / float64(s.PeakAllocatedBytes)
}

// Stats returns current statistics.
func (a *Allocator) Stats() Stats {
	st := Stats{
		ReservedBytes:      a.reserved,
		AllocatedBytes:     a.allocated,
		PeakReservedBytes:  a.peakReserved,
		PeakAllocatedBytes: a.peakAllocated,
		Failures:           a.failures,
	}
	for _, seg := range a.segments {
		for _, blk := range seg.blocks {
			if blk.free {
				st.FreeBlocks++
				if blk.size > st.LargestFreeBlock {
					st.LargestFreeBlock = blk.size
				}
			}
		}
	}
	return st
}

// CheckInvariants verifies internal consistency: blocks tile each segment
// exactly, no two live handles share a block, and accounting matches the
// block states. Property tests call this after random workloads.
func (a *Allocator) CheckInvariants() error {
	seen := map[*block]bool{}
	var allocated int64
	for si, seg := range a.segments {
		var off int64
		for _, blk := range seg.blocks {
			if blk.off != off {
				return fmt.Errorf("memsim: segment %d: block at %d, expected offset %d", si, blk.off, off)
			}
			if blk.size <= 0 {
				return fmt.Errorf("memsim: segment %d: non-positive block", si)
			}
			off += blk.size
			if !blk.free {
				allocated += blk.size
			}
		}
		if off != seg.size {
			return fmt.Errorf("memsim: segment %d: blocks cover %d of %d", si, off, seg.size)
		}
	}
	for h, loc := range a.live {
		if loc.blk.free {
			return fmt.Errorf("memsim: live handle %d points at a free block", h)
		}
		if seen[loc.blk] {
			return fmt.Errorf("memsim: two handles share a block")
		}
		seen[loc.blk] = true
	}
	if allocated != a.allocated {
		return fmt.Errorf("memsim: accounting says %d allocated, blocks say %d", a.allocated, allocated)
	}
	return nil
}
