package tune

import (
	"fmt"
	"iter"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Search accounting mirrors into the default obs registry: the evaluated-
// point and cost-eval (distinct shape) totals as plain counters, the
// per-reason prune totals as one labeled counter family.
var (
	tunePointsC    = obs.Default().Counter("helix_tune_points_total")
	tuneCostEvalsC = obs.Default().Counter("helix_tune_cost_evals_total")
)

func (s *Search) prune(reason string) {
	s.res.Pruned[reason]++
	obs.Default().Counter("helix_tune_pruned_total", "reason", reason).Inc()
}

// PruneError reports one discarded grid point of a streaming search: the
// candidate, the constraint that discarded it (PruneBuild, PruneMemory,
// PruneSim or PrunePlacement), and the underlying cause.
type PruneError struct {
	// Candidate is the discarded grid point.
	Candidate Candidate
	// Reason is the Prune* constraint name.
	Reason string
	// Err is the underlying failure.
	Err error
}

func (e *PruneError) Error() string { return fmt.Sprintf("pruned (%s): %v", e.Reason, e.Err) }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *PruneError) Unwrap() error { return e.Err }

// shapeKey identifies the shape a candidate's cost books are priced at:
// cost-model evaluation depends only on the micro-batch shape (b, s) — or,
// for workload candidates, on the workload and its order — so the whole
// method x stages x micro-batch cross product shares one flat book per
// shape (Search.flat).
type shapeKey struct {
	b, s     int
	workload string
	order    string
}

// flatBooks is what every candidate of one shape key is priced on: its
// ordered batch (nil for a fixed shape) and its flat cost book. A Search
// fills each key's once, for the first point of that key it evaluates.
// Builders only read a book, so the points of a key share it.
type flatBooks struct {
	once  sync.Once
	batch *model.BatchSpec
	costs sched.Costs
}

// Search is a prepared, streamable autotuner run. NewSearch validates the
// spec and runs the cheap phases (grid enumeration, geometry and model-state
// pruning, counting the distinct cost-book shapes); Points streams the
// expensive phase — one simulated Point or PruneError per surviving grid
// point, in deterministic grid order, each yielded as soon as it is
// available; Result finalizes the accounting and rankings over whatever
// Points has yielded so far. Run wires the three together for callers that
// want the collected Result.
type Search struct {
	m      model.Config
	cl     costmodel.ClusterSpec
	spec   Spec
	budget int64

	res       *Result
	survivors []Candidate
	workloads map[string]model.BatchSpec
	// books holds one entry per shape key of the survivors, made in
	// NewSearch and filled by flat, so Points' workers only read the map.
	books map[shapeKey]*flatBooks
}

// NewSearch validates the spec against the model and cluster and runs the
// cheap pruning phases, returning a Search ready to stream. It errors only
// on an unusable spec or inputs; prunable grid points are counted, never
// fatal.
func NewSearch(m model.Config, cl costmodel.ClusterSpec, spec Spec) (*Search, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("tune: invalid model: %w", err)
	}
	if err := cl.Validate(); err != nil {
		return nil, fmt.Errorf("tune: invalid cluster: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	methods := sched.Methods()
	if len(spec.Methods) > 0 {
		// Resolve to canonical registry names: stateBytes switches on
		// them, so a case-variant spelling must not fall through to the
		// default.
		methods = make([]sched.Method, 0, len(spec.Methods))
		for _, method := range spec.Methods {
			r, ok := sched.Lookup(string(method))
			if !ok {
				return nil, fmt.Errorf("tune: unknown method %q", method)
			}
			methods = append(methods, r.Name)
		}
	}
	budget := spec.MemoryBudgetBytes
	if budget == 0 {
		budget = int64(cl.GPU.MemoryGB * float64(1<<30))
	}

	s := &Search{
		m: m, cl: cl, spec: spec, budget: budget,
		res: &Result{
			Model:             m.Name,
			Cluster:           cl.Name,
			MemoryBudgetBytes: budget,
			Pruned:            map[string]int{},
		},
		workloads: map[string]model.BatchSpec{},
	}
	if spec.Cluster != nil {
		s.res.Topology = spec.Cluster.Name
	}
	grid := spec.grid(methods)
	s.res.GridSize = len(grid)
	for _, w := range spec.Workloads {
		s.workloads[w.Name] = w.Batch
	}

	// Phase 1: cheap pruning, with no cost model, plan or simulation. A
	// point goes when its geometry is unusable, or when its model states
	// alone exceed the budget: no stash can fit beside them. Every other
	// point is built in Points and pruned there on its plan's own stash
	// peak.
	for _, c := range grid {
		w := costmodel.NewWorkload(m, cl, model.Shape{B: c.MicroBatchSize, S: c.SeqLen})
		if c.Stages <= 0 || c.MicroBatches <= 0 || c.MicroBatchSize <= 0 ||
			c.SeqLen <= 0 || m.Layers%c.Stages != 0 || w.ValidateIteration(c.MicroBatches) != nil {
			s.prune(PruneGeometry)
			continue
		}
		if stateBytes(m, cl, c.Method, c.Stages) > budget {
			s.prune(PruneMemory)
			continue
		}
		s.survivors = append(s.survivors, c)
	}

	// Phase 2: count the distinct shapes the survivors' books are priced
	// at. Each one's flat book is priced once (flat), which keeps
	// CostModelEvals strictly below the naive grid size.
	s.books = map[shapeKey]*flatBooks{}
	for _, c := range s.survivors {
		if key := keyOf(c); s.books[key] == nil {
			s.books[key] = &flatBooks{}
			s.res.CostModelEvals++
			tuneCostEvalsC.Inc()
		}
	}
	return s, nil
}

// flat returns the ordered batch and flat cost book of a surviving
// candidate's shape key, pricing them on the key's first use.
func (s *Search) flat(c Candidate) *flatBooks {
	fb := s.books[keyOf(c)]
	fb.once.Do(func() {
		var batch model.BatchSpec
		if fb.batch = s.batchOf(c); fb.batch != nil {
			batch = *fb.batch
		}
		w := costmodel.NewWorkload(s.m, s.cl, model.Shape{B: c.MicroBatchSize, S: c.SeqLen})
		fb.costs = sched.NewCosts(w, batch, nil)
	})
	return fb
}

func keyOf(c Candidate) shapeKey {
	if c.Workload != "" {
		return shapeKey{workload: c.Workload, order: c.Order}
	}
	return shapeKey{b: c.MicroBatchSize, s: c.SeqLen}
}

// batchOf resolves a candidate's workload name (and order) to its batch
// spec; fixed-length candidates resolve to nil.
func (s *Search) batchOf(c Candidate) *model.BatchSpec {
	if c.Workload == "" {
		return nil
	}
	b := s.workloads[c.Workload]
	if c.Order != "" {
		// Order names are validated by Spec.Validate, so Ordered cannot
		// fail here.
		b, _ = b.Ordered(model.MBOrder(c.Order))
	}
	return &b
}

// Points streams the expensive phase: the surviving grid points are built,
// checked against the budget on their own stash peaks and simulated on
// obs.Ordered's bounded worker pool (Spec.Workers wide), and are yielded in
// deterministic grid order as soon as each one completes — evaluated points
// as (Point, nil), discarded ones as (Point{}, *PruneError). A prune
// never aborts the remaining points. The stream records everything it
// yields into the Search's accounting, so Result after draining equals what
// Run returns; breaking early launches nothing further and leaves a partial
// (but consistent) Result. Points may be consumed once. Each point's plan is
// recycled (sched.Recycle) as soon as its stash peak or simulation is read.
func (s *Search) Points() iter.Seq2[Point, error] {
	return func(yield func(Point, error) bool) {
		type outcome struct {
			point  Point
			reason string // empty on success
		}
		cells := obs.Ordered(len(s.survivors), s.spec.Workers, s.spec.Sink,
			func(i int) string { return s.survivors[i].String() },
			func(i int) (outcome, error) {
				point, reason, err := s.evaluate(s.survivors[i])
				return outcome{point, reason}, err
			})
		i := 0
		for o, err := range cells {
			c := s.survivors[i]
			i++
			if o.reason != "" {
				s.prune(o.reason)
				s.res.Errors = append(s.res.Errors, err.Error())
				if !yield(Point{}, &PruneError{Candidate: c, Reason: o.reason, Err: err}) {
					return
				}
				continue
			}
			s.res.Points = append(s.res.Points, o.point)
			tunePointsC.Inc()
			if !yield(o.point, nil) {
				return
			}
			if s.spec.budgetMet(o.point) {
				// The budget target is met: stop the stream here. In-flight
				// cells drain into their buffered slots and are discarded;
				// nothing further launches.
				s.res.StoppedEarly = true
				return
			}
		}
	}
}

// Result finalizes the accounting — evaluated count, best-per-scenario
// picks, Pareto frontier — over the points streamed so far and returns the
// collected Result.
func (s *Search) Result() *Result {
	s.res.Evaluated = len(s.res.Points)
	s.res.Best = bestPerScenario(s.spec, s.res.Points)
	s.res.Frontier = paretoFrontier(s.spec, s.res.Points)
	return s.res
}

// Run searches the spec's grid for the given model on the given cluster: a
// thin collector that drains the Search's point stream and returns the
// ranked Result. Build and simulation failures of individual grid points
// are counted and recorded, never fatal; Run errors only on an unusable
// spec or inputs.
func Run(m model.Config, cl costmodel.ClusterSpec, spec Spec) (*Result, error) {
	search, err := NewSearch(m, cl, spec)
	if err != nil {
		return nil, err
	}
	for range search.Points() {
		// Outcomes are recorded by the stream itself; draining it is all a
		// collector does.
	}
	return search.Result(), nil
}

// evaluate builds and simulates one surviving candidate. A non-empty reason
// (PruneBuild, PruneMemory, PruneSim or PrunePlacement) reports a discarded
// point. Each plan is validated as soon as it is built, placement included,
// and its largest stage stash plus the model states is checked against the
// budget before it is simulated: the check reads the stash peaks the
// validator recorded, and sim.Run finds the plan already validated. A plan
// that fails validation is a builder bug; it is pruned as PruneSim with the
// simulator's own message. Under a cluster topology the candidate searches
// the spec's placement strategies and keeps the fastest placement that
// fits. Plans are built on the key's flat book or on placed books priced per
// build, and recycled once read.
func (s *Search) evaluate(c Candidate) (Point, string, error) {
	books := s.flat(c)
	cfg := sched.Config{Stages: c.Stages, MicroBatches: c.MicroBatches, Layers: s.m.Layers}
	tokens := int64(c.MicroBatchSize) * int64(c.SeqLen) * int64(c.MicroBatches)
	padFraction := 0.0
	if batch := books.batch; batch != nil {
		cfg.Batch = *batch
		tokens = batch.TotalTokens()
		padFraction = batch.PadFraction()
	}
	w := costmodel.NewWorkload(s.m, s.cl, model.Shape{B: c.MicroBatchSize, S: c.SeqLen})
	states := stateBytes(s.m, s.cl, c.Method, c.Stages)
	params := sched.BuildParams{MemoryBudget: s.budget - states}
	build := func(topo *cluster.Topology, placement []int) (*sched.Plan, string, error) {
		costs := books.costs
		if topo != nil {
			costs = sched.NewCosts(w, cfg.Batch, topo)
		}
		plan, err := sched.Build(c.Method, cfg, costs, params)
		if err != nil {
			return nil, PruneBuild, err
		}
		plan.Placement = placement
		if err := sched.Validate(plan); err != nil {
			sched.Recycle(plan)
			return nil, PruneSim, fmt.Errorf("sim: invalid plan: %w", err)
		}
		if peak := maxStash(plan) + states; peak > s.budget {
			sched.Recycle(plan)
			return nil, PruneMemory, fmt.Errorf("peak %d exceeds budget %d", peak, s.budget)
		}
		return plan, "", nil
	}

	var simRes *sim.Result
	var best cluster.Placement
	if s.spec.Cluster != nil {
		traffic, err := sched.Traffic(c.Method, cfg, books.costs, params)
		if err != nil {
			return Point{}, PruneBuild, fmt.Errorf("%s: %w", c, err)
		}
		var reason string
		simRes, best, reason, err = s.simulatePlacements(c.Stages, traffic, build)
		if err != nil {
			return Point{}, reason, fmt.Errorf("%s: %w", c, err)
		}
	} else {
		plan, reason, err := build(nil, nil)
		if err != nil {
			return Point{}, reason, fmt.Errorf("%s: %w", c, err)
		}
		simRes, err = sim.Run(plan, sim.Options{SMPenalty: s.cl.CommSMPenalty})
		sched.Recycle(plan)
		if err != nil {
			return Point{}, PruneSim, fmt.Errorf("%s: %w", c, err)
		}
	}
	point := Point{
		Candidate:          c,
		Placement:          best.Strategy,
		PlacementDevices:   best.Devices,
		PadFraction:        padFraction,
		TokensPerIteration: tokens,
		PeakBytes:          simRes.MaxPeakStashBytes() + states,
		IterationSeconds:   simRes.IterationSeconds,
		TokensPerSecond:    simRes.Throughput(tokens),
		BubbleFraction:     bubbleFraction(simRes),
	}
	if tokens > 0 {
		point.SecondsPerToken = simRes.IterationSeconds / float64(tokens)
	}
	return point, "", nil
}

// maxStash returns the plan's largest per-stage stash peak (sched.StashPeaks,
// the validator's record on a validated plan), 0 for a plan without stages.
func maxStash(plan *sched.Plan) int64 {
	var peak int64
	for _, v := range sched.StashPeaks(plan) {
		peak = max(peak, v)
	}
	return peak
}

// simulatePlacements places the candidate's traffic matrix — read in closed
// form, priced on flat books, since message volumes are equal on every
// placed book — with each of the spec's placement strategies on its
// topology, builds the plan once per placement on the cost books placed
// there (the pricing a Session applies to a placed cell), and returns the
// fastest iteration's result and placement among the plans that fit the
// budget. A failure comes with its prune reason: a build failure is
// PruneBuild, as it is without a topology, since whether a plan builds does
// not depend on where it is placed; a point wider than the topology is
// PrunePlacement; a point whose every valid plan is over budget is
// PruneMemory; any other is PruneSim. A placement whose plan fails
// validation or simulation moves the search on to the next placement. The
// greedy search seeds from zero, so results are deterministic.
func (s *Search) simulatePlacements(stages int, traffic [][]int64,
	build func(*cluster.Topology, []int) (*sched.Plan, string, error)) (*sim.Result, cluster.Placement, string, error) {
	topo := *s.spec.Cluster
	if stages > topo.Devices() {
		// Nothing can be placed, but a plan that cannot be built is still
		// counted as the build failure it is.
		plan, reason, err := build(nil, nil)
		sched.Recycle(plan)
		if reason == PruneBuild {
			return nil, cluster.Placement{}, PruneBuild, err
		}
		return nil, cluster.Placement{}, PrunePlacement, fmt.Errorf(
			"%d stages exceed the %d devices of %s", stages, topo.Devices(), topo.Name)
	}
	strategies := s.spec.Placements
	if len(strategies) == 0 {
		strategies = cluster.Strategies()
	}
	pt := cluster.Perturb{SlowDevice: -1}
	if s.spec.Perturb != nil {
		pt = *s.spec.Perturb
	}
	var bestRes *sim.Result
	var bestPlace cluster.Placement
	var firstErr, memErr error
	fail := func(strategy string, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("placement %s: %w", strategy, err)
		}
	}
	for _, strategy := range strategies {
		// Candidate links are priced as the perturbation leaves them, so a
		// degraded fabric steers the search away from the broken links and
		// the ranking matches the perturbed simulation below.
		place, err := cluster.Generate(strategy, topo, stages, traffic, cluster.SearchOptions{Perturb: pt})
		if err != nil {
			fail(strategy, err)
			continue
		}
		view, err := cluster.Resolve(topo, place, pt)
		if err != nil {
			fail(strategy, err)
			continue
		}
		plan, reason, err := build(view, place.Devices)
		switch reason {
		case PruneBuild:
			return nil, cluster.Placement{}, PruneBuild, err
		case PruneMemory:
			// Placed books may reorder a list-scheduled plan, and with it
			// the plan's peak: another placement may still fit.
			if memErr == nil {
				memErr = fmt.Errorf("placement %s: %w", strategy, err)
			}
			continue
		case PruneSim:
			fail(strategy, err)
			continue
		}
		res, err := sim.Run(plan, sim.Options{SMPenalty: s.cl.CommSMPenalty, Topology: view})
		sched.Recycle(plan)
		if err != nil {
			fail(strategy, err)
			continue
		}
		if bestRes == nil || res.IterationSeconds < bestRes.IterationSeconds {
			bestRes, bestPlace = res, place
		}
	}
	switch {
	case bestRes != nil:
		return bestRes, bestPlace, "", nil
	case memErr != nil:
		return nil, cluster.Placement{}, PruneMemory, memErr
	}
	return nil, cluster.Placement{}, PruneSim, firstErr
}

func bubbleFraction(r *sim.Result) float64 {
	if r.IterationSeconds <= 0 {
		return 0
	}
	return r.BubbleSeconds() / r.IterationSeconds
}

// bestPerScenario picks the best point under the spec's objective per
// scenario: one per sequence length (fixed-length points only) in the
// spec's order, then one per workload in the spec's order.
func bestPerScenario(spec Spec, points []Point) []Point {
	bestSeq := map[int]Point{}
	bestWL := map[string]Point{}
	for _, p := range points {
		if p.Workload != "" {
			if cur, ok := bestWL[p.Workload]; !ok || spec.better(p, cur) {
				bestWL[p.Workload] = p
			}
			continue
		}
		if cur, ok := bestSeq[p.SeqLen]; !ok || spec.better(p, cur) {
			bestSeq[p.SeqLen] = p
		}
	}
	out := make([]Point, 0, len(bestSeq)+len(bestWL))
	for _, seq := range dedupe(spec.SeqLens) {
		if p, ok := bestSeq[seq]; ok {
			out = append(out, p)
		}
	}
	for _, w := range spec.Workloads {
		if p, ok := bestWL[w.Name]; ok {
			out = append(out, p)
		}
	}
	return out
}

// paretoFrontier returns the points no other point dominates in (peak
// memory down, objective up), ordered by ascending peak memory.
func paretoFrontier(spec Spec, points []Point) []Point {
	sorted := append([]Point(nil), points...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].PeakBytes != sorted[j].PeakBytes {
			return sorted[i].PeakBytes < sorted[j].PeakBytes
		}
		return spec.better(sorted[i], sorted[j])
	})
	var frontier []Point
	for _, p := range sorted {
		if len(frontier) == 0 || spec.better(p, frontier[len(frontier)-1]) {
			frontier = append(frontier, p)
		}
	}
	return frontier
}
