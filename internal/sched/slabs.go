package sched

import (
	"runtime"
	"sync"

	"repro/internal/obs"
)

// MaxPooledOps is the largest plan, in ops, whose memory outlives it:
// Recycle drops a slab above it (16 MiB), and the list scheduler drops
// scratch it sized for a larger plan. One build near MaxMicroBatches,
// hundreds of megabytes, therefore does not stay resident for as long as
// the process keeps building. The largest plan of the benchmark's workloads
// is 10,320 ops.
const MaxPooledOps = 1 << 18

// slabs is the process-wide free list of program slabs, the backing arrays
// that plans' stage programs are carved from. NewPlan carves every plan from
// the list when a slab is large enough, and Recycle returns a spent plan's
// slab to it, so the next build writes over the last one's ops instead of
// zeroing a fresh array and leaving the old one to the collector. The list
// holds at most GOMAXPROCS slabs, the largest it was given, each of at most
// MaxPooledOps ops.
var slabs struct {
	sync.Mutex
	free [][]Op
}

// Slab traffic publishes to the default registry through instruments
// resolved once at init, so a build pays one atomic add for it.
var (
	slabsReused    = obs.Default().Counter("helix_plan_slab_reused_total")
	slabsAllocated = obs.Default().Counter("helix_plan_slab_allocated_total")
)

// takeSlab removes and returns the smallest free slab with room for n ops,
// or nil when none has. A miss also drops the smallest free slab, so the
// slabs on the list and in plans awaiting Recycle never outnumber the most
// builds run at once.
func takeSlab(n int) []Op {
	slabs.Lock()
	defer slabs.Unlock()
	fit := -1
	for i, s := range slabs.free {
		if cap(s) >= n && (fit < 0 || cap(s) < cap(slabs.free[fit])) {
			fit = i
		}
	}
	if fit < 0 {
		if len(slabs.free) > 0 {
			dropSlab(smallestSlab())
		}
		return nil
	}
	return dropSlab(fit)
}

// putSlab returns a slab to the list, which then drops its smallest slabs
// until it holds at most GOMAXPROCS, read at each put: a full list keeps
// its largest, and a lower GOMAXPROCS bounds it from the next put on.
func putSlab(s []Op) {
	n := runtime.GOMAXPROCS(0)
	slabs.Lock()
	defer slabs.Unlock()
	slabs.free = append(slabs.free, s)
	for len(slabs.free) > n {
		dropSlab(smallestSlab())
	}
}

// smallestSlab returns the index of the list's smallest slab; the list is
// locked and not empty.
func smallestSlab() int {
	least := 0
	for i, s := range slabs.free {
		if cap(s) < cap(slabs.free[least]) {
			least = i
		}
	}
	return least
}

// dropSlab removes and returns the list's slab at i; the list is locked.
func dropSlab(i int) []Op {
	s, last := slabs.free[i], len(slabs.free)-1
	slabs.free[i], slabs.free[last] = slabs.free[last], nil
	slabs.free = slabs.free[:last]
	return s
}

// NewPlan returns the plan a builder fills: cfg's geometry and batch, the
// cost book, and one empty stage program per entry of lengths, program s
// with room for exactly lengths[s] ops. The builder names the Method.
// Builders that know their program lengths before emitting (every
// generator in this repository) allocate the programs here, once: all of
// them are carved out of one slab, each capped at its length, so a program
// that outgrows its count reallocates instead of spilling into the next
// stage's. The slab is the free list's smallest that is large enough, its
// slots still holding the ops of the plan built there before, so builders
// store whole ops; without one it is allocated.
func NewPlan(cfg Config, costs Costs, lengths []int) *Plan {
	total := 0
	for _, n := range lengths {
		total += n
	}
	slab := takeSlab(total)
	if slab == nil {
		slab = make([]Op, total)
		slabsAllocated.Inc()
	} else {
		slabsReused.Inc()
	}
	return &Plan{
		Stages:       cfg.Stages,
		MicroBatches: cfg.MicroBatches,
		Layers:       cfg.Layers,
		Ops:          carve(lengths, slab[:total]),
		Costs:        costs,
		Batch:        cfg.Batch,
		slab:         slab[:cap(slab)],
	}
}

// Recycle returns a plan's slab to the free list once the plan's result has
// been read, and drops a slab above MaxPooledOps instead. Only code that
// owns the plan and reads nothing of it afterwards recycles it: a plan
// handed to a caller (Build, Session.Plan) is never recycled for it. The
// plan is spent: its Ops and validation memo are cleared, so a stale handle
// fails Validate instead of simulating the ops of whichever plan is built
// into the slab next. Recycling a plan twice or a hand-built plan does
// nothing.
func Recycle(p *Plan) {
	if p == nil || p.slab == nil {
		return
	}
	if cap(p.slab) <= MaxPooledOps {
		putSlab(p.slab)
	}
	p.Ops, p.slab = nil, nil
	p.validated, p.recvSlots, p.msgBases, p.stashPeaks = false, nil, nil, nil
}
