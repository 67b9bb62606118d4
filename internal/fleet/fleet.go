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
	"slices"
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

	a      *alloc
	events eventHeap
	// queues[d] holds the queued jobs that demand d devices, in admission
	// order (admitsBefore); demands lists the demands whose queue is not
	// empty, ascending, and queued counts every queued job. The queue's head
	// in admission order is the first of the demand queues' heads, and the
	// first queued job that fits f free devices the first of the heads of
	// demands up to f.
	queues  [][]*jobState
	demands []int
	queued  int
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
	return run(c, jobs, simr, opt, (*engine).schedule)
}

// run is Run with the admission step as a parameter, so a test can replay a
// stream under a reference scheduler.
func run(c cluster.Cluster, jobs []Job, simr Simulator, opt Options, schedule func(*engine, float64) error) (*Report, error) {
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

	e := &engine{c: c, sim: simr, policy: policy, probe: opt.Probe, a: newAlloc(c),
		queues: make([][]*jobState, total+1)}
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
			e.enqueue(ev.st)
		} else {
			e.complete(ev.st, ev.timeSec)
		}
		if err := schedule(e, ev.timeSec); err != nil {
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
				Queued:           e.queued,
				Running:          len(e.running),
				Preemptions:      e.preemptions,
			})
		}
	}
	if e.queued > 0 || len(e.running) > 0 {
		return nil, fmt.Errorf("fleet: %d jobs stranded after the last event (engine bug)",
			e.queued+len(e.running))
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
// until nothing further can start. A carve fails only when the demand exceeds
// the free devices, so the queue's head starts when it fits; a blocked head
// may preempt (under a preemptive policy), and otherwise, under backfill, the
// first queued job in admission order that fits starts. The demand queues
// answer both questions from their heads, without a scan of the queue.
func (e *engine) schedule(t float64) error {
	for e.queued > 0 {
		st := e.first(math.MaxInt)
		if st.job.Demand > e.a.free {
			if e.policy.Preempt {
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
					continue
				}
			}
			if !e.policy.Backfill {
				return nil // head-of-line blocking: only the head may start
			}
			if st = e.first(e.a.free); st == nil {
				return nil // nothing queued fits
			}
		}
		devs, _ := e.a.carve(e.policy.Carve, st.job.Demand)
		if err := e.start(st, devs, t); err != nil {
			return err
		}
	}
	return nil
}

// first returns the first queued job in admission order among those that
// demand at most limit devices, or nil when there is none.
func (e *engine) first(limit int) *jobState {
	var head *jobState
	for _, d := range e.demands {
		if d > limit {
			break
		}
		if q := e.queues[d]; head == nil || e.admitsBefore(q[0], head) {
			head = q[0]
		}
	}
	return head
}

// admitsBefore reports whether a precedes b in the policy's admission order:
// higher priority first under OrderPriority, then earlier arrival, then input
// order. It is a strict total order, since input order is unique.
func (e *engine) admitsBefore(a, b *jobState) bool {
	if e.policy.Order == OrderPriority && a.job.Priority != b.job.Priority {
		return a.job.Priority > b.job.Priority
	}
	if a.job.ArrivalSec != b.job.ArrivalSec {
		return a.job.ArrivalSec < b.job.ArrivalSec
	}
	return a.seq < b.seq
}

// enqueue inserts a job (an arrival or a preempted job) at its admission-order
// position in its demand's queue.
func (e *engine) enqueue(st *jobState) {
	d := st.job.Demand
	q := e.queues[d]
	if len(q) == 0 {
		i, _ := slices.BinarySearch(e.demands, d)
		e.demands = slices.Insert(e.demands, i, d)
	}
	i := sort.Search(len(q), func(k int) bool { return e.admitsBefore(st, q[k]) })
	e.queues[d] = slices.Insert(q, i, st)
	e.queued++
}

// dequeue removes a starting job from its demand's queue. Admission starts a
// demand queue's head (the queue's head, or the first job that fits), which
// leaves at no cost; only under arrival order with preemption can a victim
// that arrived earlier re-queue ahead of the job that preempted it.
func (e *engine) dequeue(st *jobState) {
	d := st.job.Demand
	q := e.queues[d]
	i := sort.Search(len(q), func(k int) bool { return !e.admitsBefore(q[k], st) })
	if i == len(q) || q[i] != st {
		panic(fmt.Sprintf("fleet: job %s is not in its demand queue (engine bug)", st.job.ID))
	}
	if i == 0 {
		q[0] = nil
		q = q[1:]
	} else {
		q = slices.Delete(q, i, i+1)
	}
	e.queues[d] = q
	e.queued--
	if len(q) == 0 {
		i, _ := slices.BinarySearch(e.demands, d)
		e.demands = slices.Delete(e.demands, i, i+1)
	}
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
	e.enqueue(st)
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
	e.dequeue(st)
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

// nodeSpan counts the distinct nodes a carved device set touches. Carves are
// sorted ascending and devices are numbered node-major, so each node's
// devices are adjacent.
func (e *engine) nodeSpan(devs []int) int {
	nodes, last := 0, -1
	for _, d := range devs {
		if n := e.c.NodeOf(d); n != last {
			nodes, last = nodes+1, n
		}
	}
	return nodes
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

// appendFreeOnNode appends the node's free device ids to out in ascending
// order, at most limit of them.
func (a *alloc) appendFreeOnNode(out []int, node, limit int) []int {
	base := a.nodeBase[node]
	for d := base; d < base+a.c.Nodes[node].Devices && limit > 0; d++ {
		if !a.busy[d] {
			out = append(out, d)
			limit--
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
		n := len(out)
		out = a.appendFreeOnNode(out, best, remaining)
		// Mark tentatively so the next round sees the reduced free counts;
		// undone below because carve must not mutate until take().
		for _, d := range out[n:] {
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
		n := len(out)
		out = a.appendFreeOnNode(out, best, remaining)
		for _, d := range out[n:] {
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
