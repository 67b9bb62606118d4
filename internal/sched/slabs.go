package sched

import (
	"runtime"
	"sync"

	"repro/internal/obs"
)

// Slabs is a free list of program slabs, the backing arrays that plans'
// stage programs are carved from. A call that builds plans only to read one
// result off each (a sweep's cells, a tune search's grid points, a fleet's
// cache misses) builds them on one list (WithSlabs) and recycles each plan
// once its result is read (Recycle). The next build then writes over the
// last one's ops instead of zeroing a fresh array and leaving the old one
// to the collector. A list holds at most GOMAXPROCS slabs, each at its full
// capacity, and is safe for concurrent use. It is garbage once the call that
// made it returns.
type Slabs struct {
	mu   sync.Mutex
	free [][]Op
}

// NewSlabs returns an empty free list bounded at GOMAXPROCS slabs.
func NewSlabs() *Slabs { return &Slabs{free: make([][]Op, 0, runtime.GOMAXPROCS(0))} }

// WithSlabs returns cfg with the free list its plans are built on; nil
// builds them in fresh memory. Only code that recycles every plan it builds
// sets a list: the plans handed to callers are never built on one.
func WithSlabs(cfg Config, l *Slabs) Config {
	cfg.slabs = l
	return cfg
}

// Slab traffic publishes to the default registry through instruments
// resolved once at init, so a build pays one atomic add for it.
var (
	slabsReused    = obs.Default().Counter("helix_plan_slab_reused_total")
	slabsAllocated = obs.Default().Counter("helix_plan_slab_allocated_total")
)

// take removes and returns the smallest free slab with room for n ops, or
// nil when none has. A miss also drops the smallest free slab, so the slabs
// a call keeps alive, on its list or in its plans, never outnumber the most
// builds it ran at once.
func (l *Slabs) take(n int) []Op {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fit, least := -1, -1
	for i, s := range l.free {
		if cap(s) >= n && (fit < 0 || cap(s) < cap(l.free[fit])) {
			fit = i
		}
		if least < 0 || cap(s) < cap(l.free[least]) {
			least = i
		}
	}
	i := fit
	if i < 0 {
		i = least
	}
	if i < 0 {
		return nil
	}
	s := l.free[i]
	last := len(l.free) - 1
	l.free[i], l.free[last] = l.free[last], nil
	l.free = l.free[:last]
	if fit < 0 {
		return nil
	}
	return s
}

// put returns a slab to the list. A full list keeps its largest slabs.
func (l *Slabs) put(s []Op) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < cap(l.free) {
		l.free = append(l.free, s)
		return
	}
	least := 0
	for i := range l.free {
		if cap(l.free[i]) < cap(l.free[least]) {
			least = i
		}
	}
	if len(l.free) > 0 && cap(s) > cap(l.free[least]) {
		l.free[least] = s
	}
}

// NewPlan returns the plan a builder fills: cfg's geometry and batch, the
// cost book, and one empty stage program per entry of lengths, program s
// with room for exactly lengths[s] ops. The builder names the Method.
// Builders that know their program lengths before emitting (every
// generator in this repository) allocate the programs here, once: all of
// them are carved out of one slab, each capped at its length, so a program
// that outgrows its count reallocates instead of spilling into the next
// stage's. On a Config with a free list the slab is the list's when one is
// large enough, its slots still holding the ops of the plan built there
// before, so builders store whole ops.
func NewPlan(cfg Config, costs Costs, lengths []int) *Plan {
	total := 0
	for _, n := range lengths {
		total += n
	}
	slab := cfg.slabs.take(total)
	if slab == nil {
		slab = make([]Op, total)
		slabsAllocated.Inc()
	} else {
		slabsReused.Inc()
	}
	p := &Plan{
		Stages:       cfg.Stages,
		MicroBatches: cfg.MicroBatches,
		Layers:       cfg.Layers,
		Ops:          carve(lengths, slab[:total]),
		Costs:        costs,
		Batch:        cfg.Batch,
	}
	if cfg.slabs != nil {
		p.slab, p.slabs = slab[:cap(slab)], cfg.slabs
	}
	return p
}

// Recycle returns the slab of a plan built on a free list to that list,
// once the plan's result has been read. The plan is spent: its Ops and
// validation memo are cleared, so a stale handle fails Validate instead of
// simulating the ops of whichever plan is built into the slab next.
// Recycling a plan twice, a plan built without a list or a hand-built plan
// does nothing.
func Recycle(p *Plan) {
	if p == nil || p.slabs == nil {
		return
	}
	p.slabs.put(p.slab)
	p.Ops, p.slab, p.slabs = nil, nil, nil
	p.validated, p.recvSlots, p.stashPeaks = false, nil, nil
}
