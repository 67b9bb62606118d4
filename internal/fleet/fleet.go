// Package fleet is a discrete-event simulator of a shared GPU cluster
// serving a stream of training jobs. One HelixPipe run models one job on one
// dedicated cluster; this package models the fleet question on top of it:
// how many jobs per hour can a cluster sustain, at what queue wait, under
// which admission and placement policy?
//
// A Job is a device demand plus arrival time, priority and an opaque payload
// describing the training run. Arrival generators (arrivals.go) produce the
// stream; a Policy (policy.go) decides admission order and which free
// devices to carve for each admitted job; the carved devices become a
// sub-cluster (the job's private topology view) and a Simulator — the bridge
// back to the real pipeline simulator — prices one training iteration on it.
// The engine advances an event queue of arrivals and completions, preempts
// and re-queues under the preemptive policy, and aggregates fleet metrics
// (queue wait, JCT, makespan, utilization, fragmentation, per-link-class
// traffic) into a Report.
//
// The engine is deterministic: the same jobs, policy and simulator always
// produce the same Report, byte for byte.
package fleet

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Job is one training job of the stream: when it arrives, how important it
// is, how many devices its pipeline needs, and how long it trains.
type Job struct {
	// ID identifies the job in the report ("job007").
	ID string
	// Template labels the job shape the stream drew ("short-32k").
	Template string
	// ArrivalSec is the job's arrival time on the fleet clock.
	ArrivalSec float64
	// Priority orders preemptive admission; higher preempts lower.
	Priority int
	// Demand is the number of devices the job's pipeline occupies — one per
	// pipeline stage.
	Demand int
	// Iterations is the number of training iterations the job runs; its
	// runtime is Iterations times the simulated iteration seconds.
	Iterations int
	// Payload is opaque to the engine and handed to the Simulator — the
	// spec-level bridge attaches the job's experiment spec here.
	Payload any
}

// JobRun is the Simulator's answer for one job on one carved sub-cluster.
type JobRun struct {
	// IterationSeconds is the simulated duration of one training iteration
	// on the carved devices.
	IterationSeconds float64
	// Placement maps the job's pipeline stages onto the sub-cluster's local
	// device ids (the engine translates them back to fleet-global ids).
	Placement cluster.Placement
	// LinkTraffic is one iteration's communication per link class.
	LinkTraffic []sim.LinkClassStats
	// CacheHit reports whether the result came from a result cache instead
	// of a fresh simulation.
	CacheHit bool
}

// Simulator prices one training iteration of a job on a carved sub-cluster.
// Implementations search a stage placement on the sub-cluster and run the
// real pipeline simulator; a result cache keyed on the job's normalized spec
// and the carve shape keeps repeated job shapes from re-simulating.
type Simulator interface {
	Simulate(job Job, sub cluster.Cluster) (JobRun, error)
}

// ProbeEvent is the engine state snapshot handed to Options.Probe after
// every processed event — the hook the policy-invariant tests watch.
type ProbeEvent struct {
	// TimeSec is the fleet clock.
	TimeSec float64
	// AllocatedDevices is the number of devices marked busy.
	AllocatedDevices int
	// RunningDemand is the summed device demand of the running jobs. The
	// no-stranded-devices invariant is AllocatedDevices == RunningDemand.
	RunningDemand int
	// FreeDevices is the number of free devices.
	FreeDevices int
	// Queued and Running count the jobs in each state.
	Queued, Running int
	// Preemptions is the cumulative preemption count up to this event.
	Preemptions int
}

// Options tunes one fleet run.
type Options struct {
	// Policy is the admission/placement policy (default FIFO).
	Policy Policy
	// Probe, when set, observes the engine state after every event.
	Probe func(ProbeEvent)
}

// jobState tracks one job through the event loop.
type jobState struct {
	job   Job
	seq   int // arrival order tiebreak
	state int // jsQueued, jsRunning, jsDone

	enqueuedAt float64 // time of the latest queue (re-)entry
	waitSec    float64 // accumulated queue wait across (re-)entries
	startSec   float64 // latest run start
	endSec     float64
	runSec     float64
	run        JobRun
	busyDevs   []int // fleet-global devices marked busy while running
	placedDevs []int // fleet-global device per pipeline stage
	nodes      int   // node span of the latest carve
	preempted  int
	cacheHit   bool
	gen        int // completion-event generation; bumped on preemption
}

const (
	jsQueued = iota
	jsRunning
	jsDone
)

// event is one entry of the fleet clock: an arrival or a completion.
type event struct {
	timeSec float64
	seq     int // monotonic push order: deterministic tie-break
	arrival bool
	st      *jobState
	gen     int // completion generation; stale after a preemption
}

// eventHeap orders events by (time, push order): ties on the clock resolve
// in the deterministic order they were scheduled.
type eventHeap struct {
	events []*event
	seq    int
}

func (h eventHeap) Len() int { return len(h.events) }
func (h eventHeap) Less(i, j int) bool {
	if h.events[i].timeSec != h.events[j].timeSec {
		return h.events[i].timeSec < h.events[j].timeSec
	}
	return h.events[i].seq < h.events[j].seq
}
func (h eventHeap) Swap(i, j int) { h.events[i], h.events[j] = h.events[j], h.events[i] }
func (h *eventHeap) Push(x any)   { h.events = append(h.events, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := h.events
	n := len(old)
	e := old[n-1]
	h.events = old[:n-1]
	return e
}
func (h *eventHeap) push(e *event) {
	h.seq++
	e.seq = h.seq
	heap.Push(h, e)
}

// engine is the mutable state of one fleet run.
type engine struct {
	c      cluster.Cluster
	sim    Simulator
	policy Policy
	probe  func(ProbeEvent)

	a       *alloc
	events  eventHeap
	queue   []*jobState
	running []*jobState
	states  []*jobState

	cacheHits, cacheMisses int
	preemptions            int // cumulative across all jobs
}

// Run simulates the job stream on the shared cluster under the policy and
// returns the fleet report. Jobs are validated eagerly: a demand exceeding
// the cluster's device count can never be admitted and is an error, not a
// stranded queue entry.
func Run(c cluster.Cluster, jobs []Job, simr Simulator, opt Options) (*Report, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if simr == nil {
		return nil, fmt.Errorf("fleet: no simulator")
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("fleet: no jobs")
	}
	policy := opt.Policy
	if policy.Name == "" {
		policy, _ = PolicyByName(PolicyFIFO)
	}
	total := c.Devices()
	for _, j := range jobs {
		switch {
		case j.Demand <= 0:
			return nil, fmt.Errorf("fleet: job %s demands %d devices", j.ID, j.Demand)
		case j.Demand > total:
			return nil, fmt.Errorf("fleet: job %s demands %d devices, cluster %s has %d",
				j.ID, j.Demand, c.Name, total)
		case j.Iterations <= 0:
			return nil, fmt.Errorf("fleet: job %s runs %d iterations", j.ID, j.Iterations)
		case j.ArrivalSec < 0:
			return nil, fmt.Errorf("fleet: job %s arrives at negative time %g", j.ID, j.ArrivalSec)
		case math.IsInf(j.ArrivalSec, 0) || math.IsNaN(j.ArrivalSec):
			return nil, fmt.Errorf("fleet: job %s arrives at non-finite time %g", j.ID, j.ArrivalSec)
		}
	}

	e := &engine{c: c, sim: simr, policy: policy, probe: opt.Probe, a: newAlloc(c)}
	e.states = make([]*jobState, len(jobs))
	for i, j := range jobs {
		e.states[i] = &jobState{job: j, seq: i, state: jsQueued}
	}
	// Arrival order: time, then input order.
	byArrival := append([]*jobState(nil), e.states...)
	sort.SliceStable(byArrival, func(a, b int) bool {
		return byArrival[a].job.ArrivalSec < byArrival[b].job.ArrivalSec
	})
	for _, st := range byArrival {
		e.events.push(&event{timeSec: st.job.ArrivalSec, arrival: true, st: st})
	}

	t0 := byArrival[0].job.ArrivalSec
	prev := t0
	busyDevSec, fragDevSec := 0.0, 0.0

	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(*event)
		if !ev.arrival && (ev.gen != ev.st.gen || ev.st.state != jsRunning) {
			continue // completion invalidated by a preemption
		}
		// Accrue the interval since the previous effective event under the
		// allocation that held across it.
		dt := ev.timeSec - prev
		busyDevSec += float64(e.a.allocated()) * dt
		fragDevSec += float64(e.a.fragmentedFree()) * dt
		prev = ev.timeSec

		if ev.arrival {
			ev.st.enqueuedAt = ev.timeSec
			e.queue = append(e.queue, ev.st)
		} else {
			e.complete(ev.st, ev.timeSec)
		}
		if err := e.schedule(ev.timeSec); err != nil {
			return nil, err
		}
		if e.probe != nil {
			demand := 0
			for _, st := range e.running {
				demand += st.job.Demand
			}
			e.probe(ProbeEvent{
				TimeSec:          ev.timeSec,
				AllocatedDevices: e.a.allocated(),
				RunningDemand:    demand,
				FreeDevices:      e.a.free,
				Queued:           len(e.queue),
				Running:          len(e.running),
				Preemptions:      e.preemptions,
			})
		}
	}
	if len(e.queue) > 0 || len(e.running) > 0 {
		return nil, fmt.Errorf("fleet: %d jobs stranded after the last event (engine bug)",
			len(e.queue)+len(e.running))
	}
	return e.report(t0, prev, busyDevSec, fragDevSec)
}

// complete finishes a running job and releases its devices.
func (e *engine) complete(st *jobState, t float64) {
	e.a.release(st.busyDevs)
	st.busyDevs = nil
	st.state = jsDone
	st.endSec = t
	e.removeRunning(st)
}

// schedule admits every job the policy allows at the current state, looping
// until nothing further can start.
func (e *engine) schedule(t float64) error {
	for {
		if len(e.queue) == 0 {
			return nil
		}
		ordered := e.orderedQueue()
		started := false
		for idx, st := range ordered {
			devs, ok := e.a.carve(e.policy.Carve, st.job.Demand)
			if ok {
				if err := e.start(st, devs, t); err != nil {
					return err
				}
				started = true
				break
			}
			if idx == 0 && e.policy.Preempt {
				if victims, ok := e.preemptionPlan(st); ok {
					for _, v := range victims {
						e.preempt(v, t)
					}
					devs, ok := e.a.carve(e.policy.Carve, st.job.Demand)
					if !ok {
						return fmt.Errorf("fleet: preemption freed too few devices for job %s (engine bug)", st.job.ID)
					}
					if err := e.start(st, devs, t); err != nil {
						return err
					}
					started = true
					break
				}
			}
			if !e.policy.Backfill {
				break // head-of-line blocking: only the head may start
			}
		}
		if !started {
			return nil
		}
	}
}

// orderedQueue returns the queue in the policy's admission order.
func (e *engine) orderedQueue() []*jobState {
	q := append([]*jobState(nil), e.queue...)
	switch e.policy.Order {
	case OrderPriority:
		sort.SliceStable(q, func(a, b int) bool {
			if q[a].job.Priority != q[b].job.Priority {
				return q[a].job.Priority > q[b].job.Priority
			}
			if q[a].job.ArrivalSec != q[b].job.ArrivalSec {
				return q[a].job.ArrivalSec < q[b].job.ArrivalSec
			}
			return q[a].seq < q[b].seq
		})
	default: // arrival order
		sort.SliceStable(q, func(a, b int) bool {
			if q[a].job.ArrivalSec != q[b].job.ArrivalSec {
				return q[a].job.ArrivalSec < q[b].job.ArrivalSec
			}
			return q[a].seq < q[b].seq
		})
	}
	return q
}

// preemptionPlan selects the cheapest set of strictly-lower-priority running
// jobs whose devices, together with the free pool, cover the job's demand.
// Victims are taken lowest priority first, youngest first within a priority,
// and only as many as needed; no plan exists when even preempting every
// lower-priority job leaves the demand uncovered.
func (e *engine) preemptionPlan(st *jobState) ([]*jobState, bool) {
	var candidates []*jobState
	for _, r := range e.running {
		if r.job.Priority < st.job.Priority {
			candidates = append(candidates, r)
		}
	}
	sort.SliceStable(candidates, func(a, b int) bool {
		if candidates[a].job.Priority != candidates[b].job.Priority {
			return candidates[a].job.Priority < candidates[b].job.Priority
		}
		if candidates[a].startSec != candidates[b].startSec {
			return candidates[a].startSec > candidates[b].startSec
		}
		return candidates[a].seq > candidates[b].seq
	})
	freed := e.a.free
	var victims []*jobState
	for _, c := range candidates {
		if freed >= st.job.Demand {
			break
		}
		victims = append(victims, c)
		freed += c.job.Demand
	}
	if freed < st.job.Demand {
		return nil, false
	}
	return victims, true
}

// preempt stops a running job and re-queues it. The restart is
// checkpoint-free: the job re-simulates and re-runs its full iteration
// count when re-admitted.
func (e *engine) preempt(st *jobState, t float64) {
	e.a.release(st.busyDevs)
	st.busyDevs = nil
	st.gen++ // invalidate the in-flight completion event
	st.state = jsQueued
	st.enqueuedAt = t
	st.preempted++
	e.preemptions++
	e.removeRunning(st)
	e.queue = append(e.queue, st)
}

// start admits a job onto carved devices: the carve becomes a sub-cluster,
// the simulator prices one iteration and places the stages on it, and the
// completion event lands Iterations iterations later.
func (e *engine) start(st *jobState, devs []int, t float64) error {
	sub, local2global := Carve(e.c, devs)
	run, err := e.sim.Simulate(st.job, sub)
	if err != nil {
		return fmt.Errorf("fleet: job %s: %w", st.job.ID, err)
	}
	if run.IterationSeconds <= 0 {
		return fmt.Errorf("fleet: job %s simulated a non-positive iteration time %g",
			st.job.ID, run.IterationSeconds)
	}
	placed := devs
	if n := len(run.Placement.Devices); n > 0 {
		if n != st.job.Demand {
			return fmt.Errorf("fleet: job %s placement maps %d stages for demand %d",
				st.job.ID, n, st.job.Demand)
		}
		placed = make([]int, n)
		for stage, local := range run.Placement.Devices {
			if local < 0 || local >= len(local2global) {
				return fmt.Errorf("fleet: job %s placement names sub-device %d of %d",
					st.job.ID, local, len(local2global))
			}
			placed[stage] = local2global[local]
		}
	}
	e.a.take(devs)
	if run.CacheHit {
		e.cacheHits++
	} else {
		e.cacheMisses++
	}
	st.run = run
	st.cacheHit = run.CacheHit
	st.busyDevs = devs
	st.placedDevs = placed
	st.nodes = e.nodeSpan(devs)
	st.state = jsRunning
	st.waitSec += t - st.enqueuedAt
	st.startSec = t
	st.runSec = run.IterationSeconds * float64(st.job.Iterations)
	e.running = append(e.running, st)
	e.queue = removeState(e.queue, st)
	e.events.push(&event{timeSec: t + st.runSec, st: st, gen: st.gen})
	return nil
}

func (e *engine) removeRunning(st *jobState) { e.running = removeState(e.running, st) }

func removeState(list []*jobState, st *jobState) []*jobState {
	for i, s := range list {
		if s == st {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// nodeSpan counts the distinct nodes a device set touches.
func (e *engine) nodeSpan(devs []int) int {
	seen := map[int]bool{}
	for _, d := range devs {
		seen[e.c.NodeOf(d)] = true
	}
	return len(seen)
}

// alloc tracks the free/busy state of the cluster's devices.
type alloc struct {
	c          cluster.Cluster
	busy       []bool
	freeByNode []int
	nodeBase   []int
	free       int
}

func newAlloc(c cluster.Cluster) *alloc {
	a := &alloc{
		c:          c,
		busy:       make([]bool, c.Devices()),
		freeByNode: make([]int, len(c.Nodes)),
		nodeBase:   make([]int, len(c.Nodes)),
		free:       c.Devices(),
	}
	for i, n := range c.Nodes {
		a.freeByNode[i] = n.Devices
		if i > 0 {
			a.nodeBase[i] = a.nodeBase[i-1] + c.Nodes[i-1].Devices
		}
	}
	return a
}

func (a *alloc) allocated() int { return len(a.busy) - a.free }

// fragmentedFree counts the free devices sitting on partially-occupied
// nodes — capacity that exists but cannot host a whole-node job, the
// quantity the report's time-averaged fragmentation integrates.
func (a *alloc) fragmentedFree() int {
	frag := 0
	for i, n := range a.c.Nodes {
		if a.freeByNode[i] > 0 && a.freeByNode[i] < n.Devices {
			frag += a.freeByNode[i]
		}
	}
	return frag
}

func (a *alloc) take(devs []int) {
	for _, d := range devs {
		if a.busy[d] {
			panic(fmt.Sprintf("fleet: device %d double-allocated", d))
		}
		a.busy[d] = true
		a.freeByNode[a.c.NodeOf(d)]--
		a.free--
	}
}

func (a *alloc) release(devs []int) {
	for _, d := range devs {
		if !a.busy[d] {
			panic(fmt.Sprintf("fleet: device %d double-released", d))
		}
		a.busy[d] = false
		a.freeByNode[a.c.NodeOf(d)]++
		a.free++
	}
}

// freeOnNode returns the node's free device ids in ascending order, at most
// limit of them.
func (a *alloc) freeOnNode(node, limit int) []int {
	var out []int
	base := a.nodeBase[node]
	for d := base; d < base+a.c.Nodes[node].Devices && len(out) < limit; d++ {
		if !a.busy[d] {
			out = append(out, d)
		}
	}
	return out
}

// carve selects demand free devices under the carve policy, or reports that
// the job does not fit. The returned ids are sorted ascending.
func (a *alloc) carve(kind string, demand int) ([]int, bool) {
	if demand > a.free {
		return nil, false
	}
	switch kind {
	case CarveBest:
		return a.carveBest(demand), true
	case CarveWorst:
		return a.carveWorst(demand), true
	default:
		return a.carveFirst(demand), true
	}
}

// carveFirst takes free devices in ascending global order — the naive scan
// that happily straddles node boundaries.
func (a *alloc) carveFirst(demand int) []int {
	out := make([]int, 0, demand)
	for d := 0; d < len(a.busy) && len(out) < demand; d++ {
		if !a.busy[d] {
			out = append(out, d)
		}
	}
	return out
}

// carveBest packs tightly: repeatedly the node with the fewest free devices
// that still covers the remaining demand (classic best fit), falling back to
// draining the fullest-free node when no single node suffices. Jobs stay
// within one node whenever any node has room, minimizing fragmentation and
// cross-fabric hops.
func (a *alloc) carveBest(demand int) []int {
	out := make([]int, 0, demand)
	for len(out) < demand {
		remaining := demand - len(out)
		best := -1
		for i := range a.c.Nodes {
			if a.freeByNode[i] >= remaining {
				if best < 0 || a.freeByNode[i] < a.freeByNode[best] {
					best = i
				}
			}
		}
		if best < 0 {
			// No single node covers the rest: drain the node with the most
			// free devices to span as few nodes as possible.
			for i := range a.c.Nodes {
				if a.freeByNode[i] > 0 && (best < 0 || a.freeByNode[i] > a.freeByNode[best]) {
					best = i
				}
			}
		}
		take := a.freeOnNode(best, remaining)
		out = append(out, take...)
		// Mark tentatively so the next round sees the reduced free counts;
		// undone below because carve must not mutate until take().
		for _, d := range take {
			a.busy[d] = true
			a.freeByNode[a.c.NodeOf(d)]--
		}
	}
	for _, d := range out {
		a.busy[d] = false
		a.freeByNode[a.c.NodeOf(d)]++
	}
	sort.Ints(out)
	return out
}

// carveWorst spreads wide: repeatedly the node with the most free devices
// (classic worst fit), leaving every node with as much slack as possible.
func (a *alloc) carveWorst(demand int) []int {
	out := make([]int, 0, demand)
	for len(out) < demand {
		remaining := demand - len(out)
		best := -1
		for i := range a.c.Nodes {
			if a.freeByNode[i] > 0 && (best < 0 || a.freeByNode[i] > a.freeByNode[best]) {
				best = i
			}
		}
		take := a.freeOnNode(best, remaining)
		out = append(out, take...)
		for _, d := range take {
			a.busy[d] = true
			a.freeByNode[a.c.NodeOf(d)]--
		}
	}
	for _, d := range out {
		a.busy[d] = false
		a.freeByNode[a.c.NodeOf(d)]++
	}
	sort.Ints(out)
	return out
}
