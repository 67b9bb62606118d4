// Package tune implements the configuration autotuner: given a model, a
// cluster and a constraint spec it enumerates the method x sequence-length x
// stages x micro-batch grid, discards unusable geometries and points whose
// model states alone exceed the budget, fans the rest across obs.Ordered's
// bounded worker pool, and ranks the results into a best-throughput pick per
// sequence length and a throughput-versus-peak-memory Pareto frontier. Each
// point's plan is built, and its own stash peak (sched.StashPeaks) plus
// model states is checked against the budget before it is simulated: the
// peak is a running sum over the plan's ops that no timing changes, so the
// check is exact and no point is simulated only to be dropped. Cost books
// come from sched.NewCosts, whose process-wide memo prices each micro-batch
// shape once; on a cluster topology each placement is priced on books placed
// there, exactly as a Session prices a placed cell, so a tuned point's
// iteration time equals Session.Execute's on the same configuration.
//
// The paper's own evaluation is exactly such a sweep — method x seqlen x
// cluster, with schedules winning or losing depending on where attention
// time and memory pressure land — and the autotuner turns that from "run
// every cell and eyeball the table" into "ask which schedule fits a budget".
package tune

import (
	"fmt"

	"repro/internal/cluster"
	// Linked for its registry side effect: the HelixPipe variants register
	// themselves into the sched method registry at init.
	_ "repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Prune reasons counted in Result.Pruned, one per constraint.
const (
	// PruneGeometry counts grid points with an unusable pipeline geometry
	// (non-positive axes, layers not divisible by stages).
	PruneGeometry = "geometry"
	// PruneMemory counts grid points whose per-GPU peak exceeds the budget:
	// model states alone, before any build, or the built plan's largest
	// stage stash plus model states, before any simulation.
	PruneMemory = "memory-budget"
	// PruneBuild counts survivors whose schedule builder rejected the
	// configuration (e.g. AdaPipe finding no partition under the budget).
	PruneBuild = "build-error"
	// PruneSim counts survivors whose simulation failed.
	PruneSim = "sim-error"
	// PrunePlacement counts survivors that could not be placed on the
	// topology (more stages than devices).
	PrunePlacement = "placement"
)

// The objectives a search can rank points by. Throughput (tokens per
// second, the training default) and latency per token (seconds per token)
// are reciprocal on any one point, so they induce the same ranking — the
// objective chooses the direction a Budget threshold is read in and how
// results are oriented.
const (
	// ObjectiveThroughput maximizes tokens per second (the default).
	ObjectiveThroughput = "throughput"
	// ObjectiveLatencyPerToken minimizes seconds per token.
	ObjectiveLatencyPerToken = "latency_per_token"
)

// WorkloadSpec names one variable-length workload candidate: a per-micro-
// batch shape list the autotuner ranks methods on, next to the fixed-length
// SeqLens axis.
type WorkloadSpec struct {
	// Name labels the workload in results ("bimodal-64k", ...).
	Name string `json:"name"`
	// Batch is the per-micro-batch shape list. Its length fixes the
	// micro-batch count of every candidate built on the workload.
	Batch model.BatchSpec `json:"batch"`
}

// Spec constrains the autotuner's search. Empty axes are rejected by
// Validate — callers with a natural default (the Session front door,
// helix tune) fill them in before calling Run.
type Spec struct {
	// Methods are the schedules to consider; empty means every registered
	// method.
	Methods []sched.Method `json:"methods,omitempty"`
	// SeqLens are the fixed sequence lengths to tune for. May be empty when
	// Workloads is not.
	SeqLens []int `json:"seq_lens"`
	// Workloads are variable-length workloads to tune for: each crosses with
	// Stages and Methods (the micro-batch axes come from the workload
	// itself), and each gets its own best-method pick in Result.Best.
	Workloads []WorkloadSpec `json:"workloads,omitempty"`
	// Stages are the candidate pipeline sizes.
	Stages []int `json:"stages"`
	// MicroBatches are the candidate micro-batch counts per iteration; a 0
	// entry means the paper default m = 2p of the grid point's stages.
	MicroBatches []int `json:"micro_batches,omitempty"`
	// MicroBatchSizes are the candidate micro-batch sizes; empty means {1}.
	MicroBatchSizes []int `json:"micro_batch_sizes,omitempty"`
	// MemoryBudgetBytes is the per-GPU memory budget (model states included)
	// a configuration must fit in. Zero means the GPU's full capacity.
	MemoryBudgetBytes int64 `json:"memory_budget_bytes,omitempty"`
	// Objective ranks points: ObjectiveThroughput (default) or
	// ObjectiveLatencyPerToken.
	Objective string `json:"objective,omitempty"`
	// Budget is an early-stopping target in the objective's unit: the
	// stream stops as soon as a point reaches it (tokens/s >= Budget under
	// throughput, seconds/token <= Budget under latency), marking the
	// result StoppedEarly. Zero searches the whole grid.
	Budget float64 `json:"budget,omitempty"`
	// Workers bounds the simulation worker pool; zero picks a default.
	Workers int `json:"workers,omitempty"`
	// Cluster is an optional cluster topology. When set, every surviving
	// grid point additionally searches the Placements strategies: each
	// placement whose plan fits the budget is simulated under the
	// topology's link classes, and the point keeps the fastest.
	Cluster *cluster.Cluster `json:"cluster,omitempty"`
	// Placements are the placement strategies to search per grid point
	// ("contiguous", "roundrobin", "greedy"); empty means all three.
	// Requires Cluster.
	Placements []string `json:"placements,omitempty"`
	// Orders are the micro-batch execution-order policies to cross with
	// every workload candidate ("packed", "longest", "shortest",
	// "balanced"), so order, method and placement rank jointly. Empty keeps
	// each workload's own order. Requires Workloads.
	Orders []string `json:"orders,omitempty"`
	// Perturb optionally injects a fault/straggler perturbation (slow
	// device, degraded link class, compute jitter) into every placement
	// simulation, ranking configurations under the degraded cluster.
	// Requires Cluster.
	Perturb *cluster.Perturb `json:"perturb,omitempty"`
	// Sink optionally receives a progress event per evaluated survivor
	// (started/finished, worker id, duration). It is runtime plumbing, not
	// search identity: never serialized, and excluded from spec hashing.
	Sink obs.Sink `json:"-"`
}

// Validate reports an error when the spec cannot be searched.
func (s Spec) Validate() error {
	switch {
	case len(s.SeqLens) == 0 && len(s.Workloads) == 0:
		return fmt.Errorf("tune: no sequence lengths or workloads to search")
	case len(s.Stages) == 0:
		return fmt.Errorf("tune: no pipeline sizes to search")
	case s.MemoryBudgetBytes < 0:
		return fmt.Errorf("tune: negative memory budget %d", s.MemoryBudgetBytes)
	case s.Workers < 0:
		return fmt.Errorf("tune: negative worker count %d", s.Workers)
	case s.Budget < 0:
		return fmt.Errorf("tune: negative budget target %g", s.Budget)
	}
	switch s.Objective {
	case "", ObjectiveThroughput, ObjectiveLatencyPerToken:
	default:
		return fmt.Errorf("tune: unknown objective %q (want %q or %q)",
			s.Objective, ObjectiveThroughput, ObjectiveLatencyPerToken)
	}
	for _, seq := range s.SeqLens {
		if seq <= 0 {
			return fmt.Errorf("tune: non-positive sequence length %d", seq)
		}
	}
	for _, b := range s.MicroBatchSizes {
		if b <= 0 {
			return fmt.Errorf("tune: non-positive micro batch size %d", b)
		}
	}
	for _, m := range s.MicroBatches {
		if m < 0 {
			return fmt.Errorf("tune: negative micro batch count %d", m)
		}
	}
	if s.Cluster != nil {
		if err := s.Cluster.Validate(); err != nil {
			return err
		}
	}
	if len(s.Placements) > 0 && s.Cluster == nil {
		return fmt.Errorf("tune: placements given without a cluster topology")
	}
	if s.Perturb != nil {
		if s.Cluster == nil {
			return fmt.Errorf("tune: perturbation given without a cluster topology")
		}
		if err := s.Perturb.Validate(*s.Cluster); err != nil {
			return err
		}
	}
	for _, strategy := range s.Placements {
		if _, ok := cluster.StrategyByName(strategy); !ok {
			return fmt.Errorf("tune: unknown placement strategy %q", strategy)
		}
	}
	if len(s.Orders) > 0 && len(s.Workloads) == 0 {
		return fmt.Errorf("tune: micro-batch orders given without workloads to reorder")
	}
	for _, order := range s.Orders {
		if _, ok := model.OrderByName(order); !ok {
			return fmt.Errorf("tune: unknown micro-batch order %q (known: %v)", order, model.Orders())
		}
	}
	names := map[string]bool{}
	for i, w := range s.Workloads {
		if w.Name == "" {
			return fmt.Errorf("tune: workload %d has no name", i)
		}
		if names[w.Name] {
			return fmt.Errorf("tune: duplicate workload name %q", w.Name)
		}
		names[w.Name] = true
		if err := w.Batch.Validate(); err != nil {
			return fmt.Errorf("tune: workload %q: %w", w.Name, err)
		}
	}
	return nil
}

// Candidate is one grid point of the search.
type Candidate struct {
	// Method is the pipeline parallelism.
	Method sched.Method `json:"method"`
	// SeqLen is the sequence length of every micro batch; on a workload
	// candidate it is the workload's longest sequence.
	SeqLen int `json:"seq_len"`
	// Stages is the pipeline size p.
	Stages int `json:"stages"`
	// MicroBatches is the micro-batch count m per iteration.
	MicroBatches int `json:"micro_batches"`
	// MicroBatchSize is the micro-batch size b; on a workload candidate it is
	// the workload's largest micro batch.
	MicroBatchSize int `json:"micro_batch_size"`
	// Workload names the variable-length workload the candidate runs, empty
	// on fixed-length candidates.
	Workload string `json:"workload,omitempty"`
	// Order is the micro-batch execution order of a workload candidate when
	// the spec crosses Orders; empty keeps the workload's own order.
	Order string `json:"order,omitempty"`
}

func (c Candidate) String() string {
	if c.Workload != "" {
		name := c.Workload
		if c.Order != "" {
			name += "/" + c.Order
		}
		return fmt.Sprintf("%s workload=%s p=%d m=%d",
			c.Method, name, c.Stages, c.MicroBatches)
	}
	return fmt.Sprintf("%s seq=%d p=%d m=%d b=%d",
		c.Method, c.SeqLen, c.Stages, c.MicroBatches, c.MicroBatchSize)
}

// Point is one evaluated (simulated) configuration.
type Point struct {
	Candidate
	// Placement names the winning placement strategy of a topology-aware
	// search and PlacementDevices its stage-to-device mapping (absent when
	// the spec has no cluster topology).
	Placement        string `json:"placement,omitempty"`
	PlacementDevices []int  `json:"placement_devices,omitempty"`
	// PadFraction is the padding share of a packed variable-length workload
	// (zero on fixed-length candidates and unpacked workloads).
	PadFraction float64 `json:"pad_fraction,omitempty"`
	// TokensPerIteration is the token count the candidate's iteration
	// processes (padded; the throughput numerator).
	TokensPerIteration int64 `json:"tokens_per_iteration"`
	// PeakBytes is the per-GPU peak: the plan's largest stage stash peak
	// (the one the simulator reports) plus model states. It is within the
	// budget, and the Pareto frontier orders by it.
	PeakBytes int64 `json:"peak_bytes"`
	// IterationSeconds is the simulated iteration makespan.
	IterationSeconds float64 `json:"iteration_seconds"`
	// TokensPerSecond is the simulated training throughput.
	TokensPerSecond float64 `json:"tokens_per_second"`
	// SecondsPerToken is the reciprocal latency reading of the same
	// simulation — what the latency_per_token objective ranks by.
	SecondsPerToken float64 `json:"seconds_per_token"`
	// BubbleFraction is the simulated bubble share of the iteration.
	BubbleFraction float64 `json:"bubble_fraction"`
}

// Result is the serializable outcome of one autotuner run.
type Result struct {
	// Model and Cluster label the tuned configuration.
	Model   string `json:"model"`
	Cluster string `json:"cluster"`
	// Topology names the cluster topology of a placement-aware search
	// (empty on flat-NIC runs).
	Topology string `json:"topology,omitempty"`
	// MemoryBudgetBytes is the per-GPU budget the search ran under.
	MemoryBudgetBytes int64 `json:"memory_budget_bytes"`
	// GridSize is the naive grid size: the product of the axis lengths.
	GridSize int `json:"grid_size"`
	// Evaluated counts the grid points that survived pruning and simulated
	// successfully.
	Evaluated int `json:"evaluated"`
	// Pruned counts discarded grid points per constraint (PruneGeometry,
	// PruneMemory, PruneBuild, PruneSim, PrunePlacement).
	Pruned map[string]int `json:"pruned"`
	// CostModelEvals counts the distinct micro-batch shapes (or workload
	// orders) the surviving points' cost books are priced at; the
	// process-wide book memo evaluates each once, which keeps it strictly
	// below GridSize on any real grid.
	CostModelEvals int `json:"cost_model_evals"`
	// Best is the highest-throughput feasible point per scenario — one per
	// sequence length in Spec.SeqLens order, then one per workload in
	// Spec.Workloads order; scenarios with no feasible point are absent.
	Best []Point `json:"best"`
	// Frontier is the throughput-versus-peak-memory Pareto frontier over all
	// evaluated points, ordered by ascending peak memory.
	Frontier []Point `json:"frontier"`
	// Points are all evaluated points in deterministic grid order.
	Points []Point `json:"points"`
	// StoppedEarly marks a run the Budget target cut short: the last point
	// met the threshold and the remaining grid never simulated.
	StoppedEarly bool `json:"stopped_early,omitempty"`
	// Errors records why each point built in the expensive phase was
	// pruned: build, memory, placement and simulation failures.
	Errors []string `json:"errors,omitempty"`
}

// better ranks a over b under the spec's objective.
func (s Spec) better(a, b Point) bool {
	if s.Objective == ObjectiveLatencyPerToken {
		return a.SecondsPerToken < b.SecondsPerToken
	}
	return a.TokensPerSecond > b.TokensPerSecond
}

// budgetMet reports whether the point reaches the spec's early-stopping
// target; always false without one.
func (s Spec) budgetMet(p Point) bool {
	if s.Budget <= 0 {
		return false
	}
	if s.Objective == ObjectiveLatencyPerToken {
		return p.SecondsPerToken <= s.Budget
	}
	return p.TokensPerSecond >= s.Budget
}

// grid enumerates the candidate grid in deterministic order: the fixed-length
// block first (seqlen-major, then stages, micro batches, micro batch size,
// method — resolving the m = 2p default and deduplicating axis values while
// preserving order), then one block per workload crossed with stages and
// methods (a workload fixes its own micro-batch axes).
func (s Spec) grid(methods []sched.Method) []Candidate {
	seqLens := dedupe(s.SeqLens)
	stages := dedupe(s.Stages)
	microBatches := s.MicroBatches
	if len(microBatches) == 0 {
		microBatches = []int{0}
	}
	microBatches = dedupe(microBatches)
	sizes := s.MicroBatchSizes
	if len(sizes) == 0 {
		sizes = []int{1}
	}
	sizes = dedupe(sizes)

	seen := map[Candidate]bool{}
	out := make([]Candidate, 0, len(seqLens)*len(stages)*len(microBatches)*len(sizes)*len(methods))
	for _, seq := range seqLens {
		for _, p := range stages {
			for _, m := range microBatches {
				if m == 0 {
					m = 2 * p
				}
				for _, b := range sizes {
					for _, method := range methods {
						c := Candidate{Method: method, SeqLen: seq, Stages: p,
							MicroBatches: m, MicroBatchSize: b}
						if seen[c] {
							continue
						}
						seen[c] = true
						out = append(out, c)
					}
				}
			}
		}
	}
	orders := s.Orders
	if len(orders) == 0 {
		orders = []string{""}
	}
	for _, w := range s.Workloads {
		max := w.Batch.MaxShape()
		for _, p := range stages {
			for _, order := range orders {
				for _, method := range methods {
					c := Candidate{Method: method, Workload: w.Name, Order: order,
						SeqLen: max.S, Stages: p,
						MicroBatches: w.Batch.MicroBatches(), MicroBatchSize: max.B}
					if seen[c] {
						continue
					}
					seen[c] = true
					out = append(out, c)
				}
			}
		}
	}
	return out
}

func dedupe(xs []int) []int {
	seen := map[int]bool{}
	out := xs[:0:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// stateBytes returns the per-GPU model-state bytes of the most loaded stage:
// per-stage parameter/optimizer state plus the embedding (doubled for
// HelixPipe, whose first stage holds both the input embedding and the tied
// LM head, section 4.6).
func stateBytes(m model.Config, cl costmodel.ClusterSpec, method sched.Method, stages int) int64 {
	states := m.ModelStateBytesPerStage(stages, cl.GPUsPerNode)
	embed := m.EmbeddingStateBytes(cl.GPUsPerNode)
	switch method {
	case sched.MethodHelix, sched.MethodHelixNaive, sched.MethodHelixNoRecompute:
		return states + 2*embed
	default:
		return states + embed
	}
}
