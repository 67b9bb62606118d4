package helixpipe

// This file is the declarative experiment layer: an ExperimentSpec is a
// JSON-round-trippable description of everything one experiment needs —
// model, cluster (flat or topology), placement, perturbation, workload or
// fixed shape, methods, engine, sweep axes, tune grid, output selection.
// ParseSpec/WriteSpec serialize it, Resolve validates it eagerly into a
// Session plus a RunSet, and Session.Execute (session.go) streams its
// reports. The helix command (cmd/helix) layers its flags on top of a
// spec, so every run can be saved, diffed and reproduced from one artifact.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/jsonw"
	"repro/internal/model"
)

// The engines an ExperimentSpec can name.
const (
	// SpecEngineSim runs the discrete-event cluster simulator (the default).
	SpecEngineSim = EngineSim
	// SpecEngineNumeric runs the goroutine-per-stage numeric runtime.
	SpecEngineNumeric = EngineNumeric
)

// The RunSet kinds a spec resolves to.
const (
	// RunKindRun is a single-configuration run: one cell per method.
	RunKindRun = "run"
	// RunKindSweep is a seqlen x stages x method grid of cells.
	RunKindSweep = "sweep"
	// RunKindTune is an autotuner search over the spec's tune grid.
	RunKindTune = "tune"
	// RunKindFleet is a shared-cluster job-stream simulation of the spec's
	// fleet section (Session.Fleet / helix fleet).
	RunKindFleet = "fleet"
	// RunKindDecode is an interactive-decoding KVP x TPA search of the
	// spec's decode section (Session.Decode / helix serve).
	RunKindDecode = "decode"
)

// SpecWorkload describes a variable-length workload inside an
// ExperimentSpec: either an explicit per-micro-batch shape list, or a
// synthetic corpus (a length distribution sampled and packed under a token
// budget, deterministically from the seed).
type SpecWorkload struct {
	// Dist names the synthetic document-length distribution ("uniform",
	// "bimodal", "longtail"). Ignored when Shapes is set.
	Dist string `json:"dist,omitempty"`
	// Docs is the number of documents to sample (default 64, at most
	// MaxWorkloadDocs).
	Docs int `json:"docs,omitempty"`
	// MinSeq is the shortest document (default MaxSeq/16).
	MinSeq int `json:"min_seq,omitempty"`
	// MaxSeq is the longest document and the per-micro-batch token budget
	// documents are packed under (default the spec's seq_len).
	MaxSeq int `json:"max_seq,omitempty"`
	// Seed drives the sampling deterministically (default 42).
	Seed uint64 `json:"seed,omitempty"`
	// Order names the micro-batch execution order applied after packing
	// ("packed", "longest", "shortest", "balanced"; default packed).
	Order string `json:"order,omitempty"`
	// Shapes pins the per-micro-batch shapes explicitly, bypassing sampling.
	Shapes []Shape `json:"shapes,omitempty"`
}

// MaxWorkloadDocs caps the documents a synthetic workload samples. Resolve
// packs them into micro batches before anything runs, and packing time grows
// quadratically with the document count, so the cap bounds Resolve's time;
// costmodel.MaxMicroBatches bounds the micro batches they pack into.
const MaxWorkloadDocs = 1 << 14

// SpecSweep adds sweep axes to a spec: the run becomes a seqlen x stages x
// method grid. Empty axes fall back to the spec's own value. On a workload
// spec only the stages axis may sweep — a seq_lens axis would discard the
// workload's per-micro-batch shapes, so Resolve rejects the combination.
type SpecSweep struct {
	// SeqLens are the sequence lengths to sweep; empty means the spec's.
	// Mutually exclusive with Workload.
	SeqLens []int `json:"seq_lens,omitempty"`
	// Stages are the pipeline sizes to sweep; empty means the spec's.
	Stages []int `json:"stages,omitempty"`
}

// SpecTune turns the spec into an autotuner search over its grid. Empty
// axes fall back to the spec's own geometry.
type SpecTune struct {
	// SeqLens are the candidate sequence lengths; empty means the spec's
	// seq_len (or, with a workload, no fixed-length block).
	SeqLens []int `json:"seq_lens,omitempty"`
	// Stages are the candidate pipeline sizes; empty means the spec's.
	Stages []int `json:"stages,omitempty"`
	// MicroBatches are the candidate micro-batch counts; a 0 entry means the
	// paper default m = 2p.
	MicroBatches []int `json:"micro_batches,omitempty"`
	// MicroBatchSizes are the candidate micro-batch sizes; empty means the
	// spec's.
	MicroBatchSizes []int `json:"micro_batch_sizes,omitempty"`
	// BudgetGB is the per-GPU memory budget in GB, model states included
	// (0 = the GPU's full capacity).
	BudgetGB float64 `json:"budget_gb,omitempty"`
	// Workers bounds the simulation worker pool; 0 picks GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Placements are the placement strategies to search per grid point on a
	// topology cluster; empty means all of them.
	Placements []string `json:"placements,omitempty"`
	// Orders are the micro-batch ordering policies to cross with the spec's
	// workload ("packed", "longest", "shortest", "balanced"); requires a
	// workload. Empty keeps the workload's own order.
	Orders []string `json:"orders,omitempty"`
	// Objective ranks points: "throughput" (default, tokens/s up) or
	// "latency_per_token" (seconds/token down).
	Objective string `json:"objective,omitempty"`
	// Budget is an early-stopping target in the objective's unit: the search
	// stops streaming once a point meets it (tokens/s at or above, or
	// seconds/token at or below). 0 disables early stopping.
	Budget float64 `json:"budget,omitempty"`
}

// SpecFleetTemplate is one job shape of a fleet section. Its geometry
// fields override the surrounding spec's; zero values inherit. The
// template's stage count is also its device demand — one device per stage.
type SpecFleetTemplate struct {
	// Name labels the template ("short-32k"); trace entries reference it.
	Name string `json:"name"`
	// Weight is the template's draw weight under generated arrivals
	// (default 1).
	Weight float64 `json:"weight,omitempty"`
	// Method is the single pipeline method the template's jobs run
	// (default "helix").
	Method string `json:"method,omitempty"`
	// Stages is the pipeline size and device demand (default the spec's).
	Stages int `json:"stages,omitempty"`
	// SeqLen pins a fixed sequence length, replacing any inherited
	// workload (default the spec's seq_len / workload).
	SeqLen int `json:"seq_len,omitempty"`
	// MicroBatchSize and MicroBatches override the spec's geometry.
	MicroBatchSize int `json:"micro_batch_size,omitempty"`
	MicroBatches   int `json:"micro_batches,omitempty"`
	// Priority orders preemptive admission; higher preempts lower.
	Priority int `json:"priority,omitempty"`
	// Iterations is the template's training length (default the fleet
	// section's iterations).
	Iterations int `json:"iterations,omitempty"`
}

// SpecFleet turns the spec into a shared-cluster job-stream simulation: a
// stream of jobs drawn from the templates arrives at the spec's topology
// cluster and an admission/placement policy carves devices for each. Requires
// a topology cluster and the sim engine; mutually exclusive with Sweep and
// Tune.
type SpecFleet struct {
	// Policy names the admission/placement policy ("fifo", "bestfit",
	// "worstfit", "backfill", "preempt"; default fifo).
	Policy string `json:"policy,omitempty"`
	// Jobs is the number of jobs to generate (default 50, at most
	// MaxFleetJobs). Ignored with a trace.
	Jobs int `json:"jobs,omitempty"`
	// Arrival names the arrival generator ("poisson" or "bursty"; default
	// poisson). Ignored with a trace.
	Arrival string `json:"arrival,omitempty"`
	// RatePerHour is the mean arrival rate (default 12 jobs/hour). Ignored
	// with a trace.
	RatePerHour float64 `json:"rate_per_hour,omitempty"`
	// BurstSize is the bursty generator's jobs per burst (default 4).
	BurstSize int `json:"burst_size,omitempty"`
	// Seed drives arrival generation and template draws (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Iterations is the default training length of a job (default 50).
	Iterations int `json:"iterations,omitempty"`
	// Trace replays arrivals from a JSON trace file (an array of
	// {arrival_sec, template, priority?, iterations?}) instead of
	// generating them.
	Trace string `json:"trace,omitempty"`
	// Templates are the job shapes of the stream (at least one).
	Templates []SpecFleetTemplate `json:"templates"`
}

// MaxFleetJobs caps the jobs a fleet section generates. Resolve
// materializes the whole stream and the report keeps one record per job,
// so the cap bounds a run's memory.
const MaxFleetJobs = 1 << 16

// normalized deep-copies a fleet section, fills its defaults and validates
// it against the parent spec. It is idempotent, like ExperimentSpec's own
// normalized, so -emit-spec round-trips fleet specs exactly.
func (f *SpecFleet) normalized(parent *ExperimentSpec) (*SpecFleet, error) {
	n := *f
	n.Templates = append([]SpecFleetTemplate(nil), n.Templates...)
	if n.Policy == "" {
		n.Policy = FleetPolicyFIFO
	}
	policy, ok := FleetPolicyByName(n.Policy)
	if !ok {
		return nil, fmt.Errorf("helixpipe: unknown fleet policy %q; the policies are:\n%s",
			n.Policy, FleetPolicyListing())
	}
	n.Policy = policy.Name
	if n.Trace != "" {
		// A trace replays recorded arrivals; generator knobs would silently
		// do nothing.
		if n.Jobs != 0 || n.Arrival != "" || n.RatePerHour != 0 || n.BurstSize != 0 {
			return nil, fmt.Errorf("helixpipe: a fleet trace replays recorded arrivals; drop jobs/arrival/rate_per_hour/burst_size")
		}
	} else {
		if n.Jobs == 0 {
			n.Jobs = 50
		}
		if n.Jobs < 0 || n.Jobs > MaxFleetJobs {
			return nil, fmt.Errorf("helixpipe: fleet jobs must be between 1 and %d, got %d", MaxFleetJobs, n.Jobs)
		}
		switch n.Arrival {
		case "":
			n.Arrival = FleetArrivalPoisson
		case FleetArrivalPoisson, FleetArrivalBursty:
		default:
			return nil, fmt.Errorf("helixpipe: unknown fleet arrival generator %q (want %s or %s)",
				n.Arrival, FleetArrivalPoisson, FleetArrivalBursty)
		}
		if n.RatePerHour == 0 {
			n.RatePerHour = 12
		}
		if n.RatePerHour < 0 {
			return nil, fmt.Errorf("helixpipe: fleet rate_per_hour must be positive, got %g", n.RatePerHour)
		}
		if n.Arrival == FleetArrivalBursty {
			if n.BurstSize == 0 {
				n.BurstSize = 4
			}
			if n.BurstSize < 0 {
				return nil, fmt.Errorf("helixpipe: fleet burst_size must be positive, got %d", n.BurstSize)
			}
		} else if n.BurstSize != 0 {
			return nil, fmt.Errorf("helixpipe: fleet burst_size requires the bursty arrival generator")
		}
	}
	if n.Seed == 0 {
		n.Seed = 1
	}
	if n.Iterations == 0 {
		n.Iterations = 50
	}
	if n.Iterations < 0 {
		return nil, fmt.Errorf("helixpipe: fleet iterations must be positive, got %d", n.Iterations)
	}
	if len(n.Templates) == 0 {
		return nil, fmt.Errorf("helixpipe: fleet needs at least one job template")
	}
	seen := map[string]bool{}
	for i := range n.Templates {
		t := &n.Templates[i]
		if t.Name == "" {
			return nil, fmt.Errorf("helixpipe: fleet template %d has no name", i)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("helixpipe: duplicate fleet template %q", t.Name)
		}
		seen[t.Name] = true
		if t.Weight == 0 {
			t.Weight = 1
		}
		if t.Weight < 0 {
			return nil, fmt.Errorf("helixpipe: fleet template %q weight must be positive, got %g", t.Name, t.Weight)
		}
		if t.Method == "" {
			t.Method = string(MethodHelix)
		}
		m, ok := LookupMethod(t.Method)
		if !ok {
			return nil, fmt.Errorf("helixpipe: fleet template %q names unknown method %q; the registered methods are:\n%s",
				t.Name, t.Method, MethodListing())
		}
		t.Method = string(m)
		if t.Stages == 0 {
			t.Stages = parent.Stages
		}
		if t.Iterations == 0 {
			t.Iterations = n.Iterations
		}
		if t.Iterations < 0 {
			return nil, fmt.Errorf("helixpipe: fleet template %q iterations must be positive, got %d", t.Name, t.Iterations)
		}
	}
	return &n, nil
}

// SpecDecode turns the spec into an interactive-decoding scenario: the
// Helix Parallelism setting where a batch of concurrent sessions decodes
// against a multi-million-token KV cache and attention shards over KV
// heads (TPA) versus sequence (KVP). The search sweeps the KVP x TPA
// lattice (or explicit axes) under a per-device KV-memory prune and ranks
// by latency per token or throughput. Requires the sim engine; mutually
// exclusive with Sweep, Tune, Fleet and Workload.
type SpecDecode struct {
	// ContextLen is the KV-cache length every session starts decoding from
	// (default 1M tokens — the Helix Parallelism regime).
	ContextLen int `json:"context_len,omitempty"`
	// DecodeTokens is the number of tokens each session generates
	// (default 32).
	DecodeTokens int `json:"decode_tokens,omitempty"`
	// Sessions is the batch of concurrent sessions (default 4).
	Sessions int `json:"sessions,omitempty"`
	// GPUs is the tensor-parallel world size the lattice carves
	// (default 8).
	GPUs int `json:"gpus,omitempty"`
	// KVHeads is the GQA KV-head count K; 0 defaults to the model's full
	// head count (MHA). Must be unset under MLA.
	KVHeads int `json:"kv_heads,omitempty"`
	// MLA switches to multi-head latent attention: one shared latent per
	// token (effective K = 1, so TPA is pinned to 1).
	MLA bool `json:"mla,omitempty"`
	// LatentDim is the MLA latent width (default 512); requires MLA.
	LatentDim int `json:"latent_dim,omitempty"`
	// KVP and TPA pin explicit sharding axes to cross; empty sweeps the
	// full-utilization lattice KVP*TPA = GPUs.
	KVP []int `json:"kvp,omitempty"`
	TPA []int `json:"tpa,omitempty"`
	// Objective ranks shardings: "latency_per_token" (default) or
	// "throughput".
	Objective string `json:"objective,omitempty"`
	// BudgetGB is the per-device memory budget the KV prune checks weights
	// plus peak cache against; 0 means the GPU's full capacity.
	BudgetGB float64 `json:"budget_gb,omitempty"`
}

// normalized deep-copies a decode section, fills its defaults and validates
// it against the parent spec. Idempotent, like ExperimentSpec's own
// normalized, so -emit-spec round-trips decode specs exactly.
func (d *SpecDecode) normalized(parent *ExperimentSpec) (*SpecDecode, error) {
	n := *d
	n.KVP = append([]int(nil), n.KVP...)
	n.TPA = append([]int(nil), n.TPA...)
	if n.ContextLen == 0 {
		n.ContextLen = 1 << 20
	}
	if n.ContextLen < 0 {
		return nil, fmt.Errorf("helixpipe: decode context_len must be positive, got %d", n.ContextLen)
	}
	if n.DecodeTokens == 0 {
		n.DecodeTokens = 32
	}
	if n.DecodeTokens < 0 {
		return nil, fmt.Errorf("helixpipe: decode decode_tokens must be positive, got %d", n.DecodeTokens)
	}
	if n.Sessions == 0 {
		n.Sessions = 4
	}
	if n.Sessions < 0 {
		return nil, fmt.Errorf("helixpipe: decode sessions must be positive, got %d", n.Sessions)
	}
	if n.GPUs == 0 {
		n.GPUs = 8
	}
	if n.GPUs < 0 {
		return nil, fmt.Errorf("helixpipe: decode gpus must be positive, got %d", n.GPUs)
	}
	mc, ok := ModelByName(parent.Model)
	if !ok {
		return nil, fmt.Errorf("helixpipe: unknown model %q (presets: %s)",
			parent.Model, strings.Join(ModelNames(), ", "))
	}
	if n.MLA {
		if n.KVHeads > 0 {
			return nil, fmt.Errorf("helixpipe: decode mla uses one shared latent; drop kv_heads")
		}
		if n.LatentDim == 0 {
			n.LatentDim = 512
		}
		if n.LatentDim < 0 {
			return nil, fmt.Errorf("helixpipe: decode latent_dim must be positive, got %d", n.LatentDim)
		}
	} else {
		if n.LatentDim != 0 {
			return nil, fmt.Errorf("helixpipe: decode latent_dim requires mla")
		}
		if n.KVHeads == 0 {
			n.KVHeads = mc.Heads
		}
		if n.KVHeads < 0 {
			return nil, fmt.Errorf("helixpipe: decode kv_heads must be positive, got %d", n.KVHeads)
		}
		if mc.Heads%n.KVHeads != 0 {
			return nil, fmt.Errorf("helixpipe: decode kv_heads (%d) must divide the model's %d query heads",
				n.KVHeads, mc.Heads)
		}
	}
	switch n.Objective {
	case "":
		n.Objective = DecodeObjectiveLatencyPerToken
	case DecodeObjectiveLatencyPerToken, DecodeObjectiveThroughput:
	default:
		return nil, fmt.Errorf("helixpipe: unknown decode objective %q (want %q or %q)",
			n.Objective, DecodeObjectiveLatencyPerToken, DecodeObjectiveThroughput)
	}
	if _, err := budgetBytes("decode budget_gb", n.BudgetGB); err != nil {
		return nil, err
	}
	for _, v := range n.KVP {
		if v <= 0 {
			return nil, fmt.Errorf("helixpipe: decode kvp values must be positive, got %d", v)
		}
	}
	for _, v := range n.TPA {
		if v <= 0 {
			return nil, fmt.Errorf("helixpipe: decode tpa values must be positive, got %d", v)
		}
	}
	return &n, nil
}

// SpecOutput selects what a command-line tool emits for the spec's run.
type SpecOutput struct {
	// JSON emits machine-readable reports on stdout.
	JSON bool `json:"json,omitempty"`
	// CSV also writes rows to this path.
	CSV string `json:"csv,omitempty"`
	// Timeline prints an ASCII timeline per report (forces tracing).
	Timeline bool `json:"timeline,omitempty"`
	// SVG writes an SVG timeline per report under this path (forces
	// tracing).
	SVG string `json:"svg,omitempty"`
	// Perfetto writes a Chrome/Perfetto trace-event JSON file of every
	// traced cell to this path (forces tracing); load it in
	// ui.perfetto.dev.
	Perfetto string `json:"perfetto,omitempty"`
}

// ExperimentSpec is the serializable description of one experiment: every
// input a run needs, and nothing session-internal. The zero value of every
// optional field means "the default" — Resolved returns a copy with the
// defaults filled in, which re-resolves to an identical RunSet (that is what
// helix -emit-spec writes).
type ExperimentSpec struct {
	// Model is a model preset name ("1.3B", "3B", "7B", "13B", "tiny").
	Model string `json:"model"`
	// Cluster is a flat cost-model preset ("H20", "A800"), a topology preset
	// ("DGX-A800x4", ...), or a path to a topology JSON file.
	Cluster string `json:"cluster"`
	// SeqLen is the fixed sequence length (default 131072). With a workload
	// it only seeds the workload's defaults.
	SeqLen int `json:"seq_len,omitempty"`
	// Stages is the pipeline size p (default 8).
	Stages int `json:"stages,omitempty"`
	// MicroBatchSize is the micro-batch size b (default 1).
	MicroBatchSize int `json:"micro_batch_size,omitempty"`
	// MicroBatches is the micro-batch count m; 0 means the paper default
	// m = 2p, recomputed per sweep cell.
	MicroBatches int `json:"micro_batches,omitempty"`
	// MemoryBudgetGB is the per-GPU activation budget handed to budget-aware
	// schedules; 0 keeps the cluster-derived default.
	MemoryBudgetGB float64 `json:"memory_budget_gb,omitempty"`
	// Methods are the schedules to run; "all" or empty means every
	// registered method.
	Methods []string `json:"methods,omitempty"`
	// Engine runs the plans: "sim" (default) or "numeric".
	Engine string `json:"engine,omitempty"`
	// Seed drives the numeric engine's init and data generation.
	Seed uint64 `json:"seed,omitempty"`
	// Trace forces simulator tracing even without timeline output.
	Trace bool `json:"trace,omitempty"`
	// Workload is an optional variable-length workload; while set it governs
	// the micro-batch geometry.
	Workload *SpecWorkload `json:"workload,omitempty"`
	// Placement names a stage-placement strategy searched per method on a
	// topology cluster ("contiguous", "roundrobin", "greedy").
	Placement string `json:"placement,omitempty"`
	// PlacementSeed drives the greedy placement search (default 1).
	PlacementSeed uint64 `json:"placement_seed,omitempty"`
	// Perturb injects faults in the -perturb flag syntax, e.g.
	// "slow=3x2.0,link=ibx0.5,jitter=0.05,seed=7". Requires a topology
	// cluster.
	Perturb string `json:"perturb,omitempty"`
	// Sweep turns the run into a grid; mutually exclusive with Tune.
	Sweep *SpecSweep `json:"sweep,omitempty"`
	// Tune turns the run into an autotuner search; mutually exclusive with
	// Sweep.
	Tune *SpecTune `json:"tune,omitempty"`
	// Fleet turns the run into a shared-cluster job-stream simulation;
	// mutually exclusive with Sweep and Tune, requires a topology cluster.
	Fleet *SpecFleet `json:"fleet,omitempty"`
	// Decode turns the run into an interactive-decoding KVP x TPA search;
	// mutually exclusive with Sweep, Tune, Fleet and Workload.
	Decode *SpecDecode `json:"decode,omitempty"`
	// Output selects what the helix command emits.
	Output *SpecOutput `json:"output,omitempty"`
}

// RunCell is one (method, seqlen, stages) cell of a resolved RunSet.
type RunCell struct {
	// Method is the pipeline parallelism of the cell.
	Method Method `json:"method"`
	// SeqLen and Stages are the cell's geometry.
	SeqLen int `json:"seq_len"`
	Stages int `json:"stages"`
}

// RunSet is the resolved execution plan of a spec: what Session.Execute
// will run, in order. Two specs that resolve to equal RunSets describe the
// same experiment — that is the reproducibility contract behind -emit-spec.
type RunSet struct {
	// Kind is RunKindRun, RunKindSweep, RunKindTune, RunKindFleet or
	// RunKindDecode.
	Kind string `json:"kind"`
	// Engine names the engine the cells run on ("sim" or "numeric").
	Engine string `json:"engine"`
	// Seed is the numeric engine's init/data seed.
	Seed uint64 `json:"seed,omitempty"`
	// Placement and PlacementSeed drive the per-method placement search of
	// topology runs ("" keeps the contiguous default).
	Placement     string `json:"placement,omitempty"`
	PlacementSeed uint64 `json:"placement_seed,omitempty"`
	// Cells enumerates the run's cells in deterministic grid order
	// (seqlen-major, then stages, then method). Empty on tune, fleet and
	// decode runs.
	Cells []RunCell `json:"cells,omitempty"`
	// Tune is the fully-resolved autotuner spec of a RunKindTune run.
	Tune *TuneSpec `json:"tune,omitempty"`
	// Fleet is the materialized job stream of a RunKindFleet run: every
	// arrival drawn, every template resolved into a single-method job spec.
	// Run it with Session.Fleet.
	Fleet *FleetSpec `json:"fleet,omitempty"`
	// Decode is the fully-resolved decoding scenario of a RunKindDecode
	// run. Run it with Session.Decode.
	Decode *DecodeSpec `json:"decode,omitempty"`
}

// ParseSpec decodes and strictly validates an ExperimentSpec from JSON:
// unknown fields are errors, so typos in a spec file fail loudly instead of
// silently running the default.
func ParseSpec(r io.Reader) (*ExperimentSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	spec := &ExperimentSpec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("helixpipe: invalid experiment spec: %w", err)
	}
	// A second document in the stream is a malformed spec, not extra input.
	if dec.More() {
		return nil, fmt.Errorf("helixpipe: invalid experiment spec: trailing data after the spec object")
	}
	return spec, nil
}

// ParseSpecFile reads an ExperimentSpec from a JSON file.
func ParseSpecFile(path string) (*ExperimentSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := ParseSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// WriteSpec writes the spec as indented JSON. WriteSpec and ParseSpec
// round-trip: every field survives Write -> Parse -> Resolve.
func WriteSpec(w io.Writer, spec *ExperimentSpec) error {
	return jsonw.Write(w, spec)
}

// WriteSpecFile writes the spec as an indented JSON file.
func WriteSpecFile(path string, spec *ExperimentSpec) error {
	var buf bytes.Buffer
	if err := WriteSpec(&buf, spec); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Resolved returns a copy of the spec with every default filled in and
// every name canonicalized (method names through the registry, "all"
// expanded, workload and tune axes made explicit). The result re-resolves
// to a RunSet identical to the original spec's — it is what helix
// -emit-spec writes for exact reproduction.
//
// Resolved accepts advisory oddities without failing — notably `trace`
// with no span-consuming output, where spans are recorded and then
// dropped; Notes reports them and the helix command prints them to
// stderr.
func (s *ExperimentSpec) Resolved() (*ExperimentSpec, error) {
	n, err := s.normalized()
	if err != nil {
		return nil, err
	}
	// Resolve the normalized copy so -emit-spec never writes a spec that
	// fails later: name resolution above is necessary but a spec can still
	// be geometrically unbuildable.
	if _, _, err := n.Resolve(); err != nil {
		return nil, err
	}
	return n, nil
}

// Notes returns advisory notes about a valid spec: configurations that are
// accepted but probably not what the author meant. Notes never fail a
// resolve; the helix command prints them to stderr. An unresolvable
// spec has no notes — resolution errors out first and says why.
func (s *ExperimentSpec) Notes() []string {
	n, err := s.normalized()
	if err != nil {
		return nil
	}
	var notes []string
	spansConsumed := n.Output != nil &&
		(n.Output.Timeline || n.Output.SVG != "" || n.Output.Perfetto != "")
	if n.Trace && !spansConsumed {
		notes = append(notes,
			"trace is set but no timeline/svg/perfetto output consumes the spans; they are recorded per cell and dropped")
	}
	return notes
}

// Resolve validates the spec eagerly and returns the Session it configures
// plus the RunSet describing what Session.Execute will run. Every error a
// run could hit from bad configuration — unknown names, impossible
// geometry, a placement without a topology — surfaces here, before anything
// executes.
func (s *ExperimentSpec) Resolve() (*Session, RunSet, error) {
	n, err := s.normalized()
	if err != nil {
		return nil, RunSet{}, err
	}
	p, err := n.resolveParts()
	if err != nil {
		return nil, RunSet{}, err
	}
	session, err := NewSession(p.model, p.cluster, p.options...)
	if err != nil {
		return nil, RunSet{}, err
	}
	rs, err := n.runSet(p)
	if err != nil {
		return nil, RunSet{}, err
	}
	return session, rs, nil
}

// normalized deep-copies the spec, fills defaults and canonicalizes names.
// It is idempotent: normalized(normalized(s)) == normalized(s), which makes
// the -emit-spec round trip exact.
func (s *ExperimentSpec) normalized() (*ExperimentSpec, error) {
	n := *s
	if n.Model == "" {
		return nil, fmt.Errorf("helixpipe: spec names no model (presets: %s)",
			strings.Join(ModelNames(), ", "))
	}
	if n.Cluster == "" {
		return nil, fmt.Errorf("helixpipe: spec names no cluster; the available clusters are:\n%s", ClusterListing())
	}
	if n.SeqLen == 0 {
		n.SeqLen = 131072
	}
	if n.Stages == 0 {
		n.Stages = 8
	}
	if n.MicroBatchSize == 0 {
		n.MicroBatchSize = 1
	}
	// MicroBatches stays 0 for the paper default m = 2p: pinning it here
	// would freeze one stage count's m across sweep cells.
	switch n.Engine {
	case "":
		n.Engine = SpecEngineSim
	case SpecEngineSim, SpecEngineNumeric:
	default:
		return nil, fmt.Errorf("helixpipe: unknown engine %q (known: %s, %s)",
			n.Engine, SpecEngineSim, SpecEngineNumeric)
	}
	methods, err := resolveSpecMethods(n.Methods)
	if err != nil {
		return nil, err
	}
	n.Methods = methods
	if n.Workload != nil {
		w := *n.Workload
		w.Shapes = append([]Shape(nil), w.Shapes...)
		if len(w.Shapes) == 0 {
			if w.Dist == "" {
				return nil, fmt.Errorf("helixpipe: workload needs a dist or explicit shapes")
			}
			if _, ok := LengthDistByName(w.Dist); !ok {
				return nil, fmt.Errorf("helixpipe: unknown length distribution %q (uniform, bimodal, longtail)", w.Dist)
			}
			if w.Docs == 0 {
				w.Docs = 64
			}
			if w.Docs > MaxWorkloadDocs {
				return nil, fmt.Errorf("helixpipe: workload docs must be at most %d, got %d", MaxWorkloadDocs, w.Docs)
			}
			if w.MaxSeq == 0 {
				w.MaxSeq = n.SeqLen
			}
			if w.MinSeq == 0 {
				w.MinSeq = max(w.MaxSeq/16, 1)
			}
			if w.Seed == 0 {
				w.Seed = 42
			}
		}
		if w.Order != "" {
			if _, ok := MBOrderByName(w.Order); !ok {
				return nil, fmt.Errorf("helixpipe: unknown micro-batch order %q (known: %v)",
					w.Order, model.Orders())
			}
		}
		n.Workload = &w
	}
	if n.Placement != "" {
		if _, ok := cluster.StrategyByName(n.Placement); !ok {
			return nil, fmt.Errorf("helixpipe: unknown placement strategy %q (known: %s)",
				n.Placement, strings.Join(PlacementStrategies(), ", "))
		}
		if n.PlacementSeed == 0 {
			n.PlacementSeed = 1
		}
	}
	if n.Perturb != "" {
		if _, err := ParsePerturb(n.Perturb); err != nil {
			return nil, err
		}
	}
	if _, err := budgetBytes("memory_budget_gb", n.MemoryBudgetGB); err != nil {
		return nil, err
	}
	if n.Sweep != nil && n.Tune != nil {
		return nil, fmt.Errorf("helixpipe: spec has both sweep axes and a tune grid; pick one")
	}
	if n.Decode != nil {
		if n.Sweep != nil || n.Tune != nil || n.Fleet != nil {
			return nil, fmt.Errorf("helixpipe: a decode spec cannot also sweep, tune or run a fleet; pick one")
		}
		if n.Workload != nil {
			return nil, fmt.Errorf("helixpipe: a decode spec generates per-token work from its context; drop the workload section")
		}
		if n.Engine != SpecEngineSim {
			return nil, fmt.Errorf("helixpipe: a decode run prices shardings on the simulator; engine must be %q", SpecEngineSim)
		}
		d, err := n.Decode.normalized(&n)
		if err != nil {
			return nil, err
		}
		n.Decode = d
	}
	if n.Fleet != nil {
		if n.Sweep != nil || n.Tune != nil {
			return nil, fmt.Errorf("helixpipe: a fleet spec cannot also sweep or tune; pick one")
		}
		if n.Engine != SpecEngineSim {
			return nil, fmt.Errorf("helixpipe: a fleet run prices jobs on the simulator; engine must be %q", SpecEngineSim)
		}
		f, err := n.Fleet.normalized(&n)
		if err != nil {
			return nil, err
		}
		n.Fleet = f
	}
	if n.Sweep != nil {
		sw := *n.Sweep
		sw.SeqLens = append([]int(nil), sw.SeqLens...)
		sw.Stages = append([]int(nil), sw.Stages...)
		if len(sw.SeqLens) > 0 && n.Workload != nil {
			return nil, fmt.Errorf("helixpipe: sweeping sequence lengths would discard the spec's workload; drop the workload or the sweep's seq_lens axis")
		}
		if len(sw.SeqLens) == 0 && n.Workload == nil {
			// A workload spec keeps the axis empty: the workload governs the
			// shapes, only stages sweep.
			sw.SeqLens = []int{n.SeqLen}
		}
		if len(sw.Stages) == 0 {
			sw.Stages = []int{n.Stages}
		}
		n.Sweep = &sw
	}
	if n.Tune != nil {
		t := *n.Tune
		t.SeqLens = append([]int(nil), t.SeqLens...)
		t.Stages = append([]int(nil), t.Stages...)
		t.MicroBatches = append([]int(nil), t.MicroBatches...)
		t.MicroBatchSizes = append([]int(nil), t.MicroBatchSizes...)
		t.Placements = append([]string(nil), t.Placements...)
		t.Orders = append([]string(nil), t.Orders...)
		if len(t.SeqLens) == 0 && n.Workload == nil {
			t.SeqLens = []int{n.SeqLen}
		}
		if len(t.Stages) == 0 {
			t.Stages = []int{n.Stages}
		}
		if len(t.MicroBatchSizes) == 0 {
			t.MicroBatchSizes = []int{n.MicroBatchSize}
		}
		for _, o := range t.Orders {
			if _, ok := MBOrderByName(o); !ok {
				return nil, fmt.Errorf("helixpipe: unknown micro-batch order %q in tune grid (known: %v)",
					o, model.Orders())
			}
		}
		if len(t.Orders) > 0 && n.Workload == nil {
			return nil, fmt.Errorf("helixpipe: tune orders given without a workload to reorder")
		}
		for _, strategy := range t.Placements {
			if _, ok := cluster.StrategyByName(strategy); !ok {
				return nil, fmt.Errorf("helixpipe: unknown placement strategy %q in tune grid (known: %s)",
					strategy, strings.Join(PlacementStrategies(), ", "))
			}
		}
		if t.Objective == "" {
			t.Objective = TuneObjectiveThroughput
		}
		switch t.Objective {
		case TuneObjectiveThroughput, TuneObjectiveLatencyPerToken:
		default:
			return nil, fmt.Errorf("helixpipe: unknown tune objective %q (known: %s, %s)",
				t.Objective, TuneObjectiveThroughput, TuneObjectiveLatencyPerToken)
		}
		if t.Budget < 0 {
			return nil, fmt.Errorf("helixpipe: tune budget must be non-negative, got %g", t.Budget)
		}
		if _, err := budgetBytes("tune budget_gb", t.BudgetGB); err != nil {
			return nil, err
		}
		n.Tune = &t
	}
	if n.Output != nil {
		o := *n.Output
		n.Output = &o
	}
	return &n, nil
}

// budgetBytes converts a spec's memory budget in GB (2^30 bytes) to bytes,
// rejecting what has no byte count: NaN, infinities, negatives, and budgets
// of MaxInt64 bytes or more. field names the spec field in the error.
func budgetBytes(field string, gb float64) (int64, error) {
	if !(gb >= 0) {
		return 0, fmt.Errorf("helixpipe: %s must be a non-negative number, got %g", field, gb)
	}
	if gb >= math.MaxInt64/(1<<30) {
		return 0, fmt.Errorf("helixpipe: %s %g does not fit int64 bytes", field, gb)
	}
	return int64(gb * (1 << 30)), nil
}

// resolveSpecMethods canonicalizes a spec's method names through the
// registry: "all" (or an empty list) expands to every registered method,
// anything unknown reports the method listing.
func resolveSpecMethods(names []string) ([]string, error) {
	if len(names) == 0 {
		names = []string{"all"}
	}
	var out []string
	for _, name := range names {
		if strings.EqualFold(name, "all") {
			for _, m := range Methods() {
				out = append(out, string(m))
			}
			continue
		}
		m, ok := LookupMethod(name)
		if !ok {
			return nil, fmt.Errorf("helixpipe: unknown method %q; the registered methods are:\n%s",
				name, MethodListing())
		}
		out = append(out, string(m))
	}
	return out, nil
}

// specParts carries the resolved ingredients of a normalized spec.
type specParts struct {
	model   ModelConfig
	cluster ClusterSpec
	topo    *ClusterTopology
	batch   BatchSpec // empty Shapes on fixed-shape specs
	options []Option
}

// resolveParts resolves the normalized spec's names into concrete
// configuration and the session option list.
func (s *ExperimentSpec) resolveParts() (*specParts, error) {
	p := &specParts{}
	mc, ok := ModelByName(s.Model)
	if !ok {
		return nil, fmt.Errorf("helixpipe: unknown model %q (presets: %s)",
			s.Model, strings.Join(ModelNames(), ", "))
	}
	p.model = mc
	cl, topo, err := ResolveCluster(s.Cluster)
	if err != nil {
		return nil, err
	}
	p.cluster, p.topo = cl, topo

	p.options = []Option{
		WithSeqLen(s.SeqLen),
		WithStages(s.Stages),
		WithMicroBatchSize(s.MicroBatchSize),
	}
	if s.MicroBatches > 0 {
		p.options = append(p.options, WithMicroBatches(s.MicroBatches))
	}
	if s.MemoryBudgetGB > 0 {
		budget, _ := budgetBytes("memory_budget_gb", s.MemoryBudgetGB) // validated by normalized
		p.options = append(p.options, WithMemoryBudget(budget))
	}
	if topo != nil {
		p.options = append(p.options, WithCluster(*topo))
	}
	if s.Placement != "" && topo == nil {
		return nil, fmt.Errorf("helixpipe: placement %q requires a topology cluster (e.g. DGX-A800x4), not the flat %s",
			s.Placement, s.Cluster)
	}
	if s.Perturb != "" {
		if topo == nil {
			return nil, fmt.Errorf("helixpipe: perturbation requires a topology cluster (e.g. DGX-A800x4), not the flat %s",
				s.Cluster)
		}
		perturb, err := ParsePerturb(s.Perturb)
		if err != nil {
			return nil, err
		}
		p.options = append(p.options, WithPerturb(perturb))
	}
	if s.Workload != nil {
		batch, err := s.Workload.build()
		if err != nil {
			return nil, err
		}
		p.batch = batch
		p.options = append(p.options, WithWorkload(batch))
	}
	if s.Trace || (s.Output != nil && (s.Output.Timeline || s.Output.SVG != "" || s.Output.Perfetto != "")) {
		p.options = append(p.options, WithTrace())
	}
	return p, nil
}

// build materializes the workload description into a per-micro-batch shape
// list: explicit shapes verbatim, else sample + pack + order.
func (w *SpecWorkload) build() (BatchSpec, error) {
	var batch BatchSpec
	if len(w.Shapes) > 0 {
		batch = BatchSpec{Shapes: append([]Shape(nil), w.Shapes...)}
	} else {
		dist, _ := LengthDistByName(w.Dist)
		var err error
		batch, err = SyntheticWorkload(dist, w.Docs, w.MinSeq, w.MaxSeq, int64(w.MaxSeq), w.Seed)
		if err != nil {
			return BatchSpec{}, err
		}
	}
	if w.Order != "" {
		order, _ := MBOrderByName(w.Order)
		return batch.Ordered(order)
	}
	return batch, nil
}

// specMethods converts the normalized method names.
func (s *ExperimentSpec) specMethods() []Method {
	out := make([]Method, len(s.Methods))
	for i, name := range s.Methods {
		out[i] = Method(name)
	}
	return out
}

// runSet assembles the execution plan of a normalized spec.
func (s *ExperimentSpec) runSet(p *specParts) (RunSet, error) {
	rs := RunSet{
		Kind:          RunKindRun,
		Engine:        s.Engine,
		Seed:          s.Seed,
		Placement:     s.Placement,
		PlacementSeed: s.PlacementSeed,
	}
	if s.Decode != nil {
		rs.Kind = RunKindDecode
		ds, err := s.buildDecodeSpec(p)
		if err != nil {
			return RunSet{}, err
		}
		rs.Decode = ds
		return rs, nil
	}
	if s.Fleet != nil {
		rs.Kind = RunKindFleet
		fs, err := s.buildFleetSpec(p)
		if err != nil {
			return RunSet{}, err
		}
		rs.Fleet = fs
		return rs, nil
	}
	if s.Tune != nil {
		if s.Engine == SpecEngineNumeric {
			return RunSet{}, fmt.Errorf("helixpipe: the tune grid searches simulated configurations; engine must be %q", SpecEngineSim)
		}
		rs.Kind = RunKindTune
		rs.Tune = s.tuneSpec(p)
		// Validate the assembled grid eagerly: a tune spec that would die
		// inside Autotune (placements without a topology, non-positive
		// axes) must fail Resolve, or -emit-spec would write an unrunnable
		// spec.
		if err := rs.Tune.Validate(); err != nil {
			return RunSet{}, fmt.Errorf("helixpipe: %w", err)
		}
		return rs, nil
	}
	seqLens, stages := []int{s.SeqLen}, []int{s.Stages}
	if s.Sweep != nil {
		rs.Kind = RunKindSweep
		stages = s.Sweep.Stages
		if len(s.Sweep.SeqLens) > 0 {
			seqLens = s.Sweep.SeqLens
		}
		// A workload sweep keeps SeqLens empty; its cells carry the spec's
		// seq_len as a label only.
	}
	for _, seq := range seqLens {
		for _, pp := range stages {
			for _, m := range s.specMethods() {
				rs.Cells = append(rs.Cells, RunCell{Method: m, SeqLen: seq, Stages: pp})
			}
		}
	}
	return rs, nil
}

// tuneSpec assembles the autotuner spec of a tune-kind run.
func (s *ExperimentSpec) tuneSpec(p *specParts) *TuneSpec {
	t := s.Tune
	budget, _ := budgetBytes("tune budget_gb", t.BudgetGB) // validated by normalized
	ts := &TuneSpec{
		Methods:           s.specMethods(),
		SeqLens:           append([]int(nil), t.SeqLens...),
		Stages:            append([]int(nil), t.Stages...),
		MicroBatches:      append([]int(nil), t.MicroBatches...),
		MicroBatchSizes:   append([]int(nil), t.MicroBatchSizes...),
		MemoryBudgetBytes: budget,
		Workers:           t.Workers,
		Placements:        append([]string(nil), t.Placements...),
		Orders:            append([]string(nil), t.Orders...),
		Objective:         t.Objective,
		Budget:            t.Budget,
		Cluster:           p.topo,
	}
	if s.Perturb != "" {
		perturb, _ := ParsePerturb(s.Perturb) // validated by normalized
		ts.Perturb = &perturb
	}
	if s.Workload != nil {
		name := s.Workload.Dist
		if name == "" {
			name = "workload"
		}
		ts.Workloads = []TuneWorkload{{Name: name, Batch: p.batch}}
	}
	return ts
}
