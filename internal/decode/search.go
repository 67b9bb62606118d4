package decode

import (
	"fmt"
	"iter"
	"sort"
	"time"

	"repro/internal/obs"
)

// Objectives the decode search can rank shardings by. Latency per token
// (mean seconds per generated token) is the interactive-serving default;
// throughput (aggregate tokens per second across the batch) matches the
// training-side tune objective. At a fixed batch the two are reciprocal,
// so they induce the same ranking — the choice matters for how budgets
// are read (<= seconds vs >= tokens/s) and how reports are oriented.
const (
	ObjectiveLatencyPerToken = "latency_per_token"
	ObjectiveThroughput      = "throughput"
)

// Prune reasons recorded in Report.Pruned, mirroring the autotuner's
// "why pruned" accounting: geometry kills invalid lattice points before
// pricing, kv-memory kills points whose KV cache plus weight shard cannot
// fit the per-device budget.
const (
	PruneGeometry = "geometry"
	PruneKVMemory = "kv-memory"
)

// Spec configures one decode search: the scenario, the sharding axes to
// cross (empty axes enumerate the full-utilization lattice), the ranking
// objective, the per-device memory budget for the KV prune, and the
// hardware pricing.
type Spec struct {
	Scenario Scenario `json:"scenario"`
	// KVP and TPA are explicit axis values to cross. When both are empty
	// the search enumerates Shardings(N, heads).
	KVP []int `json:"kvp,omitempty"`
	TPA []int `json:"tpa,omitempty"`
	// Objective ranks points; defaults to latency_per_token.
	Objective string `json:"objective,omitempty"`
	// BudgetBytes is the per-device memory budget the KV prune checks
	// weights + peak KV cache against. Zero defaults to the GPU's MemoryGB.
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	// Params prices the scenario.
	Params CostParams `json:"params"`
	// Sink receives per-cell progress events; nil drops them.
	Sink obs.Sink `json:"-"`
}

// WithDefaults fills the objective and budget.
func (sp Spec) WithDefaults() Spec {
	if sp.Objective == "" {
		sp.Objective = ObjectiveLatencyPerToken
	}
	if sp.BudgetBytes <= 0 {
		sp.BudgetBytes = int64(sp.Params.GPU.MemoryGB * float64(1<<30))
	}
	return sp
}

// Validate reports an error for an unusable search spec.
func (sp Spec) Validate() error {
	if err := sp.Scenario.Validate(); err != nil {
		return err
	}
	if sp.Params.Link.GBps <= 0 {
		return fmt.Errorf("decode: link %q needs a positive bandwidth, got %g GB/s",
			sp.Params.Link.Class, sp.Params.Link.GBps)
	}
	switch sp.Objective {
	case "", ObjectiveLatencyPerToken, ObjectiveThroughput:
	default:
		return fmt.Errorf("decode: unknown objective %q (want %q or %q)",
			sp.Objective, ObjectiveLatencyPerToken, ObjectiveThroughput)
	}
	for _, v := range sp.KVP {
		if v <= 0 {
			return fmt.Errorf("decode: kvp axis values must be positive, got %d", v)
		}
	}
	for _, v := range sp.TPA {
		if v <= 0 {
			return fmt.Errorf("decode: tpa axis values must be positive, got %d", v)
		}
	}
	return nil
}

// grid lists the candidate shardings before pruning: the cross product of
// explicit axes when given, the full-utilization lattice otherwise.
func (sp Spec) grid() []Sharding {
	if len(sp.KVP) == 0 && len(sp.TPA) == 0 {
		return Shardings(sp.Scenario.GPUs, sp.Scenario.Heads)
	}
	kvp, tpa := sp.KVP, sp.TPA
	if len(kvp) == 0 {
		kvp = []int{1}
	}
	if len(tpa) == 0 {
		tpa = []int{1}
	}
	out := make([]Sharding, 0, len(kvp)*len(tpa))
	for _, t := range tpa {
		for _, k := range kvp {
			out = append(out, Sharding{KVP: k, TPA: t})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TPA != out[j].TPA {
			return out[i].TPA < out[j].TPA
		}
		return out[i].KVP < out[j].KVP
	})
	return out
}

// CommBreakdown splits a point's per-token communication time by
// collective.
type CommBreakdown struct {
	AllGatherSeconds float64 `json:"all_gather_seconds"`
	AllToAllSeconds  float64 `json:"all_to_all_seconds"`
	AllReduceSeconds float64 `json:"all_reduce_seconds"`
	TotalSeconds     float64 `json:"total_seconds"`
}

// Point is one simulated sharding: its latency distribution over the
// generated tokens, both objective readings, memory accounting, and the
// compute/comm breakdown (per-token means).
type Point struct {
	Sharding             Sharding      `json:"sharding"`
	TTFTSeconds          float64       `json:"ttft_seconds"`
	TokenSeconds         []float64     `json:"token_seconds"`
	Latency              Dist          `json:"latency"`
	SecondsPerToken      float64       `json:"seconds_per_token"`
	TokensPerSecond      float64       `json:"tokens_per_second"`
	KVBytesPerDevice     int64         `json:"kv_bytes_per_device"`
	WeightBytesPerDevice int64         `json:"weight_bytes_per_device"`
	Comm                 CommBreakdown `json:"comm"`
	ComputeSeconds       float64       `json:"compute_seconds"`
}

// Report is the decode search result: scenario provenance, the objective,
// pruning accounting, the ranked best point and every evaluated point in
// stream order.
type Report struct {
	Scenario    Scenario       `json:"scenario"`
	Objective   string         `json:"objective"`
	BudgetBytes int64          `json:"budget_bytes"`
	GPU         string         `json:"gpu"`
	Link        string         `json:"link,omitempty"`
	GridSize    int            `json:"grid_size"`
	Evaluated   int            `json:"evaluated"`
	Pruned      map[string]int `json:"pruned,omitempty"`
	Best        *Point         `json:"best,omitempty"`
	Points      []Point        `json:"points"`
}

var (
	decodePointsC = obs.Default().Counter("helix_decode_points_total")
	decodePrunedC = map[string]*obs.Counter{
		PruneGeometry: obs.Default().Counter("helix_decode_pruned_total", "reason", PruneGeometry),
		PruneKVMemory: obs.Default().Counter("helix_decode_pruned_total", "reason", PruneKVMemory),
	}
	tokenSecondsH = obs.Default().Histogram("helix_decode_token_seconds",
		[]float64{1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1})
)

// emit forwards to the sink when one is set.
func emit(s obs.Sink, e obs.Event) {
	if s != nil {
		s.Emit(e)
	}
}

// Simulate prices one sharding token by token: the cache grows from S0 to
// S0+T, so later tokens are strictly slower — the distribution is the
// point, not an average. Deterministic: same inputs, same Point. The step
// is priced once at S0; per token only its attention term, the one that
// reads the cache length, is priced again.
func (sp Spec) Simulate(sh Sharding) Point {
	sp = sp.WithDefaults()
	sc := &sp.Scenario
	params := sp.Params.WithDefaults()
	pt := Point{
		Sharding:             sh,
		TTFTSeconds:          sc.TTFTSeconds(sh, params),
		TokenSeconds:         make([]float64, 0, sc.DecodeTokens),
		KVBytesPerDevice:     sc.KVBytesPerDevice(sh),
		WeightBytesPerDevice: sc.WeightBytesPerDevice(),
	}
	base := sc.stepCost(sh, sc.ContextLen, params)
	var total, compute float64
	for t := 0; t < sc.DecodeTokens; t++ {
		c := base
		c.AttentionSeconds = sc.attentionSeconds(sh, sc.ContextLen+t, &params)
		step := c.Total()
		pt.TokenSeconds = append(pt.TokenSeconds, step)
		total += step
		compute += c.ComputeSeconds()
		pt.Comm.AllGatherSeconds += c.AllGatherSeconds
		pt.Comm.AllToAllSeconds += c.AllToAllSeconds
		pt.Comm.AllReduceSeconds += c.AllReduceSeconds
	}
	tokenSecondsH.ObserveAll(pt.TokenSeconds)
	n := float64(sc.DecodeTokens)
	pt.Latency = distOf(pt.TokenSeconds)
	pt.SecondsPerToken = total / n
	if total > 0 {
		pt.TokensPerSecond = float64(sc.Sessions) * n / total
	}
	pt.Comm.AllGatherSeconds /= n
	pt.Comm.AllToAllSeconds /= n
	pt.Comm.AllReduceSeconds /= n
	pt.Comm.TotalSeconds = pt.Comm.AllGatherSeconds + pt.Comm.AllToAllSeconds + pt.Comm.AllReduceSeconds
	pt.ComputeSeconds = compute / n
	return pt
}

// better ranks a over b under the spec's objective.
func (sp Spec) better(a, b Point) bool {
	if sp.Objective == ObjectiveThroughput {
		return a.TokensPerSecond > b.TokensPerSecond
	}
	return a.SecondsPerToken < b.SecondsPerToken
}

// Search runs a decode search, streaming each evaluated point as it
// completes. Construct with NewSearch, drain Points, then read Result.
type Search struct {
	spec Spec
	res  Report
}

// NewSearch validates and prepares a search.
func NewSearch(spec Spec) (*Search, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.WithDefaults()
	s := &Search{spec: spec}
	s.res = Report{
		Scenario:    spec.Scenario,
		Objective:   spec.Objective,
		BudgetBytes: spec.BudgetBytes,
		GPU:         spec.Params.GPU.Name,
		Link:        spec.Params.Link.Class,
		Pruned:      map[string]int{},
	}
	return s, nil
}

// Points streams evaluated points in deterministic lattice order
// (ascending TPA), pruning invalid and over-budget shardings first. Cell
// events flow to the spec's sink so long sweeps render live progress.
func (s *Search) Points() iter.Seq2[Point, error] {
	return func(yield func(Point, error) bool) {
		grid := s.spec.grid()
		s.res.GridSize = len(grid)
		sc := s.spec.Scenario

		kept := make([]Sharding, 0, len(grid))
		for _, sh := range grid {
			if err := sh.Check(sc.GPUs, sc.Heads); err != nil {
				s.res.Pruned[PruneGeometry]++
				decodePrunedC[PruneGeometry].Inc()
				continue
			}
			// KV plus weights over budget, compared without overflowing the
			// sum.
			if sc.KVBytesPerDevice(sh) > s.spec.BudgetBytes-sc.WeightBytesPerDevice() {
				s.res.Pruned[PruneKVMemory]++
				decodePrunedC[PruneKVMemory].Inc()
				continue
			}
			kept = append(kept, sh)
		}

		for i, sh := range kept {
			emit(s.spec.Sink, obs.Event{
				Kind: obs.CellStarted, Label: sh.String(), Index: i, Total: len(kept),
			})
			pt := s.spec.Simulate(sh)
			s.res.Points = append(s.res.Points, pt)
			s.res.Evaluated++
			decodePointsC.Inc()
			if s.res.Best == nil || s.spec.better(pt, *s.res.Best) {
				best := pt
				s.res.Best = &best
			}
			emit(s.spec.Sink, obs.Event{
				Kind: obs.CellFinished, Label: sh.String(), Index: i, Total: len(kept),
				Duration: time.Duration(pt.Latency.MeanSeconds * float64(time.Second)),
			})
			if !yield(pt, nil) {
				return
			}
		}
	}
}

// Result returns the report accumulated so far. Call after draining
// Points; partial drains yield partial reports.
func (s *Search) Result() *Report {
	res := s.res
	if len(res.Pruned) == 0 {
		res.Pruned = nil
	}
	return &res
}

// Run drains the search and returns the full report.
func (s *Search) Run() (*Report, error) {
	for _, err := range s.Points() {
		if err != nil {
			return nil, err
		}
	}
	return s.Result(), nil
}
