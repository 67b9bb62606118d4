package main

// The traced run: the same requests, decomposed from outside into the
// public calls of each layer, each call bracketed by a span. Spans stay in
// memory; self time is a span's duration minus its children on the same
// lane. Lane 0 is the client; lanes 1..GOMAXPROCS are the workers that run
// sweep cells, as Execute's own pool does.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	helix "repro"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/decode"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tune"
)

// layers are the timed layers, in report order.
var layers = []string{
	"spec.parse", "spec.resolve", "session.with", "cluster.place", "sched.books",
	"core.build", "sched.build", "sched.validate", "sim.run",
	"cache.key", "cache.do", "tune.search", "tune.point", "tune.rank",
	"fleet.engine", "decode.search", "decode.point", "decode.rank", "report.encode",
}

// Spans that are not layers: the request and cell glue the benchmark itself
// runs, and the client's wait while workers run cells, which is not work.
const (
	spanRequest = "request"
	spanCell    = "cell"
	spanWait    = "wait"
)

type span struct {
	name       string
	lane, req  int
	parent     int // span id, -1 for none
	start, end time.Duration
}

type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	stacks [][]int // open span ids per lane

	// Counts read off the layers' own results.
	cacheHits, cacheLookups, cacheEntries  int
	cacheBytes                             int64
	tuneGrid, tuneSurvivors, tuneCostEvals int
	decodeGrid, decodeKept                 int
}

func newTracer(lanes int) *tracer {
	return &tracer{t0: time.Now(), stacks: make([][]int, lanes)}
}

// open starts a span on the lane; a negative parent means the innermost
// open span of the lane.
func (t *tracer) open(lane, req, parent int, name string) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stacks[lane]
	if parent < 0 && len(st) > 0 {
		parent = st[len(st)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, lane: lane, req: req, parent: parent, start: now})
	t.stacks[lane] = append(st, id)
	return id
}

func (t *tracer) close(lane, id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	st := t.stacks[lane]
	t.stacks[lane] = st[:len(st)-1]
}

// add records a span that has already ended, as a child of the lane's
// innermost open span.
func (t *tracer) add(lane, req int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if st := t.stacks[lane]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{name: name, lane: lane, req: req, parent: parent,
		start: start.Sub(t.t0), end: end.Sub(t.t0)})
}

// lane is one goroutine's handle on the tracer for one request.
type lane struct {
	t       *tracer
	id, req int
}

// do runs f inside a span.
func (l lane) do(name string, f func() error) error {
	id := l.t.open(l.id, l.req, -1, name)
	defer l.t.close(l.id, id)
	return f()
}

// layerStats are the per-layer totals of a traced run.
type layerStats struct {
	self  map[string]time.Duration
	calls map[string]int
	total time.Duration // lane time: every span's self time but waits
}

func (t *tracer) stats() layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && t.spans[s.parent].lane == s.lane {
			child[s.parent] += s.end - s.start
		}
	}
	st := layerStats{self: map[string]time.Duration{}, calls: map[string]int{}}
	for i, s := range t.spans {
		if s.name == spanWait {
			continue
		}
		self := s.end - s.start - child[i]
		st.self[s.name] += self
		st.calls[s.name]++
		st.total += self
	}
	return st
}

// writePerfetto writes the spans as a Perfetto trace: one process for the
// workload, one thread per lane.
func (t *tracer) writePerfetto(w io.Writer, workload string) error {
	tr := obs.NewTrace()
	tr.ProcessName(1, workload)
	for i := range t.stacks {
		name := "client"
		if i > 0 {
			name = fmt.Sprintf("worker %d", i)
		}
		tr.ThreadName(1, i, name)
	}
	for id, s := range t.spans {
		tr.Complete(1, s.lane, s.name, "bench", float64(s.start.Nanoseconds())/1e3,
			float64((s.end-s.start).Nanoseconds())/1e3,
			map[string]any{"span": id, "parent": s.parent, "request": s.req})
	}
	return tr.WriteJSON(w)
}

// traced runs one request decomposed into its layers and returns its
// encoded output, which must equal the end-to-end output byte for byte.
func traced(t *tracer, k kind, req int, body []byte) (out []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	c := lane{t: t, req: req}
	root := t.open(0, req, -1, spanRequest)
	defer t.close(0, root)
	var spec *helix.ExperimentSpec
	if err := c.do("spec.parse", func() (err error) {
		spec, err = helix.ParseSpec(bytes.NewReader(body))
		return err
	}); err != nil {
		return nil, err
	}
	var session *helix.Session
	var rs helix.RunSet
	if err := c.do("spec.resolve", func() (err error) {
		session, rs, err = spec.Resolve()
		return err
	}); err != nil {
		return nil, err
	}
	switch k {
	case kindCells:
		return tracedCells(c, root, spec, session, rs)
	case kindTune:
		return tracedTune(c, session, rs)
	case kindFleet:
		return tracedFleet(c, session, rs)
	default:
		return tracedDecode(c, session, rs)
	}
}

// tracedCells runs each cell's chain on a worker lane: derive the cell
// session, search and apply its placement, price the books, build,
// validate and simulate the plan — the calls Execute makes per cell.
func tracedCells(c lane, root int, spec *helix.ExperimentSpec, session *helix.Session, rs helix.RunSet) ([]byte, error) {
	perturb, err := specPerturb(spec)
	if err != nil {
		return nil, err
	}
	reports := make([]*helix.Report, len(rs.Cells))
	errs := make([]error, len(rs.Cells))
	next := make(chan int)
	var wg sync.WaitGroup
	wait := c.t.open(0, c.req, -1, spanWait)
	for w := 1; w < len(c.t.stacks); w++ {
		wg.Add(1)
		go func(l lane) {
			defer wg.Done()
			for i := range next {
				cell := c.t.open(l.id, l.req, root, spanCell)
				reports[i], errs[i] = tracedCell(l, session, rs, rs.Cells[i], perturb)
				c.t.close(l.id, cell)
			}
		}(lane{t: c.t, id: w, req: c.req})
	}
	for i := range rs.Cells {
		next <- i
	}
	close(next)
	wg.Wait()
	c.t.close(0, wait)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = c.do("report.encode", func() error { return helix.WriteReportsJSON(&buf, reports) })
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), checkCells(session, rs, reports)
}

// specPerturb is the perturbation Resolve attached to the session.
func specPerturb(spec *helix.ExperimentSpec) (cluster.Perturb, error) {
	if spec.Perturb == "" {
		return cluster.Perturb{}, nil
	}
	return helix.ParsePerturb(spec.Perturb)
}

func tracedCell(l lane, session *helix.Session, rs helix.RunSet, cell helix.RunCell, perturb cluster.Perturb) (*helix.Report, error) {
	run := session
	if rs.Kind == helix.RunKindSweep {
		if err := l.do("session.with", func() (err error) {
			run, err = session.With(helix.WithStages(cell.Stages), helix.WithSeqLen(cell.SeqLen))
			return err
		}); err != nil {
			return nil, err
		}
	}
	return tracedSimulate(l, run, cell.Method, rs.Placement, rs.PlacementSeed, perturb)
}

// tracedSimulate is Session.PlacementFor + With(WithPlacement) +
// Session.Simulate, split at the layer boundaries.
func tracedSimulate(l lane, run *helix.Session, method helix.Method, strategy string, seed uint64, perturb cluster.Perturb) (*helix.Report, error) {
	placed := run
	if strategy != "" {
		plan, err := tracedPlan(l, run, method)
		if err != nil {
			return nil, err
		}
		topo, _ := run.Topology()
		var p cluster.Placement
		if err := l.do("cluster.place", func() (err error) {
			p, err = cluster.Generate(strategy, topo, run.Stages(), plan.TrafficMatrix(),
				cluster.SearchOptions{Seed: seed, Perturb: perturb})
			return err
		}); err != nil {
			return nil, err
		}
		if err := l.do("session.with", func() (err error) {
			placed, err = run.With(helix.WithPlacement(p))
			return err
		}); err != nil {
			return nil, err
		}
	}
	plan, err := tracedPlan(l, placed, method)
	if err != nil {
		return nil, err
	}
	if err := l.do("sched.validate", func() error { return sched.Validate(plan) }); err != nil {
		return nil, err
	}
	var r *helix.Report
	err = l.do("sim.run", func() (err error) {
		r, err = placed.SimEngine().Run(plan)
		return err
	})
	return r, err
}

var helixMethods = map[helix.Method]bool{
	helix.MethodHelix: true, helix.MethodHelixNaive: true, helix.MethodHelixNoRecompute: true,
}

// tracedPlan is Session.Plan split into the cost books and the builder.
// The generated specs pin no helix options, so the build parameters are
// the session's memory budget alone.
func tracedPlan(l lane, s *helix.Session, method helix.Method) (*helix.Plan, error) {
	var costs helix.Costs
	_ = l.do("sched.books", func() error { costs = s.Costs(); return nil })
	layer := "sched.build"
	if helixMethods[method] {
		layer = "core.build"
	}
	var plan *helix.Plan
	if err := l.do(layer, func() (err error) {
		cfg := sched.Config{Stages: s.Stages(), MicroBatches: s.MicroBatches(), Layers: s.Model().Layers, Batch: s.Batch()}
		plan, err = sched.Build(method, cfg, costs, sched.BuildParams{MemoryBudget: s.MemoryBudget()})
		return err
	}); err != nil {
		return nil, err
	}
	if p, ok := s.Placement(); ok {
		plan.Placement = append([]int(nil), p.Devices...)
	}
	return plan, nil
}

// tracedTune is Session.Autotune split into the search's phases. The
// session's cost books are priced first, so the search's own book lookups
// hit the process-wide memo and the pricing shows as sched.books.
func tracedTune(c lane, session *helix.Session, rs helix.RunSet) ([]byte, error) {
	_ = c.do("sched.books", func() error { session.Costs(); return nil })
	var search *tune.Search
	if err := c.do("tune.search", func() (err error) {
		search, err = tune.NewSearch(session.Model(), session.Cluster(), *rs.Tune)
		return err
	}); err != nil {
		return nil, err
	}
	start := time.Now()
	for range search.Points() {
		end := time.Now()
		c.t.add(c.id, c.req, "tune.point", start, end)
		start = end
	}
	var res *helix.TuneResult
	_ = c.do("tune.rank", func() error { res = search.Result(); return nil })
	var buf bytes.Buffer
	if err := c.do("report.encode", func() error { return helix.WriteTuneResultJSON(&buf, res) }); err != nil {
		return nil, err
	}
	c.t.mu.Lock()
	c.t.tuneGrid += res.GridSize
	c.t.tuneSurvivors += res.GridSize - res.Pruned[tune.PruneGeometry] - res.Pruned[tune.PruneMemory]
	c.t.tuneCostEvals += res.CostModelEvals
	c.t.mu.Unlock()
	return buf.Bytes(), checkTune(rs, res)
}

// tracedFleet runs the fleet engine directly with a simulator that mirrors
// Session.Fleet's: key the job spec plus carve, and on a miss resolve,
// re-cluster, place and simulate. Whatever the engine does besides calling
// the simulator is fleet.engine self time.
func tracedFleet(c lane, session *helix.Session, rs helix.RunSet) ([]byte, error) {
	topo, _ := session.Topology()
	policy, ok := fleet.PolicyByName(rs.Fleet.Policy)
	if !ok {
		return nil, fmt.Errorf("unknown fleet policy %q", rs.Fleet.Policy)
	}
	jobs := make([]fleet.Job, len(rs.Fleet.Jobs))
	for i := range rs.Fleet.Jobs {
		fj := &rs.Fleet.Jobs[i]
		jobs[i] = fleet.Job{ID: fj.ID, Template: fj.Template, ArrivalSec: fj.ArrivalSec,
			Priority: fj.Priority, Demand: fj.Spec.Stages, Iterations: fj.Iterations, Payload: fj}
	}
	cache := helix.NewReportCacheInRegistry(obs.NewRegistry())
	var rep *helix.FleetReport
	if err := c.do("fleet.engine", func() (err error) {
		rep, err = fleet.Run(topo, jobs, &tracedFleetSim{l: c, cache: cache}, fleet.Options{Policy: policy})
		return err
	}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := c.do("report.encode", func() error { return helix.WriteFleetReportJSON(&buf, rep) }); err != nil {
		return nil, err
	}
	st := cache.StatsDetail()
	c.t.mu.Lock()
	c.t.cacheHits += st.Hits
	c.t.cacheLookups += st.Hits + st.Misses
	c.t.cacheEntries += st.Entries
	c.t.cacheBytes += st.Bytes
	c.t.mu.Unlock()
	return buf.Bytes(), checkFleet(rs, rep)
}

type tracedFleetSim struct {
	l     lane
	cache *helix.ReportCache
}

func (f *tracedFleetSim) Simulate(job fleet.Job, sub cluster.Cluster) (fleet.JobRun, error) {
	fj := job.Payload.(*helix.FleetJob)
	var key string
	if err := f.l.do("cache.key", func() (err error) {
		key, err = f.cache.Key(fj.Spec, "carve="+fleet.Signature(sub))
		return err
	}); err != nil {
		return fleet.JobRun{}, err
	}
	var r *helix.Report
	var hit bool
	if err := f.l.do("cache.do", func() (err error) {
		r, hit, err = f.cache.Do(key, func() (*helix.Report, error) { return f.miss(fj.Spec, sub) })
		return err
	}); err != nil {
		return fleet.JobRun{}, err
	}
	return fleet.JobRun{
		IterationSeconds: r.Sim.IterationSeconds,
		Placement:        cluster.Placement{Devices: append([]int(nil), r.Placement...)},
		LinkTraffic:      append([]helix.LinkTraffic(nil), r.Sim.LinkTraffic...),
		CacheHit:         hit,
	}, nil
}

// miss is the fleet's simulate-on-carve chain: Resolve, With(WithCluster),
// then placement and simulation as for a cell.
func (f *tracedFleetSim) miss(spec *helix.ExperimentSpec, sub cluster.Cluster) (*helix.Report, error) {
	var base *helix.Session
	var rs helix.RunSet
	if err := f.l.do("spec.resolve", func() (err error) {
		base, rs, err = spec.Resolve()
		return err
	}); err != nil {
		return nil, err
	}
	var cell *helix.Session
	if err := f.l.do("session.with", func() (err error) {
		cell, err = base.With(helix.WithCluster(sub))
		return err
	}); err != nil {
		return nil, err
	}
	perturb, err := specPerturb(spec)
	if err != nil {
		return nil, err
	}
	return tracedSimulate(f.l, cell, helix.Method(spec.Methods[0]), rs.Placement, rs.PlacementSeed, perturb)
}

// tracedDecode is Session.Decode split into the search set-up, each
// evaluated lattice point and the ranking. Decode specs name flat clusters,
// whose pricing is the cluster GPU over its NVLink.
func tracedDecode(c lane, session *helix.Session, rs helix.RunSet) ([]byte, error) {
	if _, ok := session.Topology(); ok {
		return nil, errors.New("traced decode prices flat clusters only")
	}
	cl := session.Cluster()
	ds := rs.Decode
	var search *decode.Search
	if err := c.do("decode.search", func() (err error) {
		search, err = decode.NewSearch(decode.Spec{
			Scenario:    ds.Scenario,
			KVP:         ds.KVP,
			TPA:         ds.TPA,
			Objective:   ds.Objective,
			BudgetBytes: ds.BudgetBytes,
			Params: decode.CostParams{GPU: cl.GPU, Link: costmodel.LinkSpec{
				Class: "nvlink", GBps: cl.GPU.NVLinkGBps, LatencySec: cl.NVLinkLatency}},
		})
		return err
	}); err != nil {
		return nil, err
	}
	start := time.Now()
	for _, err := range search.Points() {
		if err != nil {
			return nil, err
		}
		end := time.Now()
		c.t.add(c.id, c.req, "decode.point", start, end)
		start = end
	}
	var rep *helix.DecodeReport
	_ = c.do("decode.rank", func() error { rep = search.Result(); return nil })
	var buf bytes.Buffer
	if err := c.do("report.encode", func() error { return helix.WriteDecodeReportJSON(&buf, rep) }); err != nil {
		return nil, err
	}
	c.t.mu.Lock()
	c.t.decodeGrid += rep.GridSize
	c.t.decodeKept += rep.Evaluated
	c.t.mu.Unlock()
	return buf.Bytes(), checkDecode(rs, rep)
}

// metrics turns the traced totals into the per-layer metrics. A layer the
// workload never calls reports zero calls, zero time and a zero share.
func (t *tracer) metrics() map[string]float64 {
	st := t.stats()
	out := map[string]float64{}
	var covered time.Duration
	for _, l := range layers {
		self, calls := st.self[l], st.calls[l]
		covered += self
		out[l+".calls"] = float64(calls)
		if calls > 0 {
			out[l+"_us"] = float64(self.Nanoseconds()) / 1e3 / float64(calls)
		}
		out[l+".share_pct"] = 100 * self.Seconds() / st.total.Seconds()
	}
	out["trace.coverage_pct"] = 100 * covered.Seconds() / st.total.Seconds()
	out["cache.hit_ratio"] = ratio(t.cacheHits, t.cacheLookups)
	out["cache.bytes_per_entry"] = ratio(int(t.cacheBytes), t.cacheEntries)
	out["tune.survivor_ratio"] = ratio(t.tuneSurvivors, t.tuneGrid)
	out["tune.cost_eval_ratio"] = ratio(t.tuneCostEvals, t.tuneGrid)
	out["decode.kept_ratio"] = ratio(t.decodeKept, t.decodeGrid)
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
