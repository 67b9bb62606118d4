// Package helixpipe is a Go reproduction of "HelixPipe: Efficient
// Distributed Training of Long Sequence Transformers with Attention Parallel
// Pipeline Parallelism" (PPoPP 2026).
//
// The public surface is built around three concepts:
//
//   - A Session binds a ModelConfig and a ClusterSpec with functional
//     options (WithSeqLen, WithStages, WithMicroBatches, ...), validates
//     eagerly, and builds schedule plans for any registered method.
//
//   - An Engine runs plans. Two interchangeable implementations exist:
//     SimEngine, a deterministic discrete-event simulator of GPU-cluster
//     pipeline training driven by the paper's analytic cost model, and
//     NumericEngine, a numeric runtime — one goroutine per stage, channels
//     as the interconnect, a pure-Go tensor library underneath — that
//     executes the same schedules on real transformer math and proves the
//     semantics claim: HelixPipe's gradients are bit-identical to 1F1B's
//     and to a single device's.
//
//   - A Report is the unified result of one run: serializable to JSON and
//     CSV, with the ASCII/SVG timeline renderers hanging off it.
//
// Both engines consume the same schedule IR. Methods live in a registry
// (internal/sched): the HelixPipe variants (attention parallel partition
// with naive or two-fold FILO schedules, with or without recomputation
// without attention) register from internal/core, and the baselines GPipe,
// 1F1B, interleaved 1F1B, ZB1P, ZB2P and AdaPipe register from
// internal/sched itself. Methods() and the helix command are
// registry-driven.
//
// Quick start:
//
//	s, err := helixpipe.NewSession(helixpipe.Model7B(), helixpipe.H20Cluster(),
//		helixpipe.WithSeqLen(131072), helixpipe.WithStages(8))
//	report, err := s.Simulate(helixpipe.MethodHelix)
//	// report.Sim.IterationSeconds, report.Sim.TokensPerSecond, ...
//	data, err := json.Marshal(report)
//
// Session.NumericEngine runs the same plans numerically:
//
//	parity, err := s.Run(s.NumericEngine(42), helixpipe.MethodHelix)
//
// Whole experiments are declarative: an ExperimentSpec is a JSON-round-
// trippable description of everything a run needs (model, cluster, topology,
// placement, perturbation, workload, methods, engine, sweep axes, tune grid,
// output selection). ParseSpec reads one, Resolve validates it eagerly into a
// Session plus a RunSet, and Session.Execute — the one grid runner — fans
// the spec's method x sequence-length x stages cells out across goroutines
// and streams their Reports in grid order as an iter.Seq2, so arbitrarily
// large sweeps never buffer:
//
//	spec := &helixpipe.ExperimentSpec{
//		Model: "7B", Cluster: "H20", Methods: []string{"1F1B", "HelixPipe"},
//		Sweep: &helixpipe.SpecSweep{SeqLens: []int{32768, 65536, 131072}, Stages: []int{2, 4, 8}},
//	}
//	session, runset, err := spec.Resolve()
//	for report, err := range session.Execute(spec) { ... }
//
// The helix command (cmd/helix) builds on the same spec: each subcommand
// (helix sim, bench, tune, fleet, serve, train, viz) accepts -spec
// file.json (flags become overrides layered onto the spec) and -emit-spec
// to write back the fully-resolved spec for exact reproduction, and runs
// whatever run kind the spec resolves to.
package helixpipe

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tune"
)

// Model and cluster configuration types.
type (
	// ModelConfig describes a GPT-family transformer (paper Table 3).
	ModelConfig = model.Config
	// ClusterSpec describes a GPU cluster testbed.
	ClusterSpec = costmodel.ClusterSpec
	// GPUSpec describes one GPU type.
	GPUSpec = costmodel.GPUSpec
	// Workload binds a model, cluster and micro-batch shape.
	Workload = costmodel.Workload
	// Shape is a micro-batch shape (batch, sequence length).
	Shape = model.Shape
	// BatchSpec is the per-micro-batch shape list of one iteration — the
	// variable-length workload description consumed by WithWorkload.
	BatchSpec = model.BatchSpec
	// LengthBucket is one bin of a sequence-length histogram.
	LengthBucket = model.LengthBucket
	// LengthDist names a synthetic document-length distribution.
	LengthDist = model.LengthDist
)

// The synthetic document-length distributions.
const (
	DistUniform  = model.DistUniform
	DistBimodal  = model.DistBimodal
	DistLongTail = model.DistLongTail
)

// Cluster topology and placement types (internal/cluster). A ClusterTopology
// describes nodes of devices with intra-node links and an inter-node fabric;
// a Placement maps pipeline stages onto its devices; a Perturb injects
// faults and stragglers. Set them on a session with WithCluster,
// WithPlacement and WithPerturb.
type (
	// ClusterTopology is a physical cluster: nodes of devices, per-node intra
	// links, one inter-node fabric.
	ClusterTopology = cluster.Cluster
	// ClusterNode is one machine of a ClusterTopology.
	ClusterNode = cluster.Node
	// ClusterLink is one link class instance (bandwidth + latency).
	ClusterLink = cluster.Link
	// LinkClass names an interconnect class ("nvlink", "pcie", "ib", ...).
	LinkClass = cluster.LinkClass
	// Placement maps pipeline stages onto cluster devices.
	Placement = cluster.Placement
	// Perturb is a fault/straggler injection: a slow device, a degraded link
	// class, per-iteration compute jitter.
	Perturb = cluster.Perturb
	// LinkTraffic is one link class's share of a simulated iteration's
	// communication.
	LinkTraffic = sim.LinkClassStats
	// MBOrder names a micro-batch execution-order policy for variable-length
	// workloads (BatchSpec.Ordered).
	MBOrder = model.MBOrder
)

// The link classes of cluster topologies.
const (
	LinkNVLink   = cluster.ClassNVLink
	LinkPCIe     = cluster.ClassPCIe
	LinkIB       = cluster.ClassIB
	LinkEthernet = cluster.ClassEthernet
)

// The placement strategies.
const (
	PlacementContiguous = cluster.StrategyContiguous
	PlacementRoundRobin = cluster.StrategyRoundRobin
	PlacementGreedy     = cluster.StrategyGreedy
)

// The micro-batch ordering policies.
const (
	OrderPacked        = model.OrderPacked
	OrderLongestFirst  = model.OrderLongestFirst
	OrderShortestFirst = model.OrderShortestFirst
	OrderBalanced      = model.OrderBalanced
)

// TopologyByName resolves a built-in topology preset case-insensitively and
// reports whether it exists.
func TopologyByName(name string) (ClusterTopology, bool) { return cluster.PresetByName(name) }

// PlacementStrategies lists the built-in placement strategies in search
// order: contiguous, roundrobin, greedy.
func PlacementStrategies() []string { return cluster.Strategies() }

// ParsePerturb parses the -perturb flag syntax: comma-separated
// "slow=<device>x<factor>", "link=<class>x<factor>", "jitter=<fraction>",
// "seed=<n>" clauses.
func ParsePerturb(s string) (Perturb, error) { return cluster.ParsePerturb(s) }

// MBOrderByName resolves a micro-batch ordering policy name ("packed",
// "longest", "shortest", "balanced") and reports whether it exists.
func MBOrderByName(name string) (MBOrder, bool) { return model.OrderByName(name) }

// FlatClusterNames lists the flat cost-model cluster presets ("H20",
// "A800") in preset order.
func FlatClusterNames() []string {
	clusters := costmodel.Clusters()
	names := make([]string, len(clusters))
	for i, cl := range clusters {
		names[i] = cl.Name
	}
	return names
}

// ClusterListing renders every resolvable -cluster argument — the flat
// cost-model presets followed by the topology presets — as the command-line
// tools print it on an unknown cluster name.
func ClusterListing() string {
	var b strings.Builder
	for _, cl := range costmodel.Clusters() {
		fmt.Fprintf(&b, "  %-12s flat %s testbed (one-hop NIC model)\n", cl.Name, cl.GPU.Name)
	}
	b.WriteString(cluster.PresetListing())
	return b.String()
}

// ResolveCluster resolves a -cluster style argument: a flat cost-model
// preset name ("H20", "A800"), a topology preset name ("DGX-A800x4",
// "DGX-H20x2", "PCIe-box"), or a path to a topology JSON file. Flat presets
// return a nil topology (the one-hop NIC model); topology arguments
// additionally return the cost-model ClusterSpec named by the topology's
// GPU field, which prices compute on its devices. An unknown name reports
// the full ClusterListing.
func ResolveCluster(arg string) (ClusterSpec, *ClusterTopology, error) {
	if cl, ok := costmodel.ClusterByName(arg); ok {
		return cl, nil, nil
	}
	var topo ClusterTopology
	if t, ok := cluster.PresetByName(arg); ok {
		topo = t
	} else if strings.HasSuffix(arg, ".json") {
		t, err := cluster.LoadFile(arg)
		if err != nil {
			return ClusterSpec{}, nil, err
		}
		topo = t
	} else {
		return ClusterSpec{}, nil, fmt.Errorf(
			"helixpipe: unknown cluster %q; the available clusters are:\n%s  (or a topology .json file)",
			arg, ClusterListing())
	}
	cl, ok := costmodel.ClusterByName(topo.GPU)
	if !ok {
		return ClusterSpec{}, nil, fmt.Errorf(
			"helixpipe: topology %s names GPU %q, not a flat cluster preset (%s)",
			topo.Name, topo.GPU, strings.Join(FlatClusterNames(), ", "))
	}
	return cl, &topo, nil
}

// SampleLengths draws n synthetic document lengths in [minLen, maxLen] from
// the distribution, deterministically from the seed.
func SampleLengths(dist LengthDist, n, minLen, maxLen int, seed uint64) ([]int, error) {
	return model.SampleLengths(dist, n, minLen, maxLen, seed)
}

// PackLengths bins document lengths into micro batches under a token budget
// with first-fit-decreasing bucketing; each micro batch pads its documents to
// its longest sequence.
func PackLengths(lengths []int, tokenBudget int64) (BatchSpec, error) {
	return model.PackLengths(lengths, tokenBudget)
}

// SyntheticWorkload samples n document lengths from the distribution and
// packs them under the token budget — the one-call constructor for
// variable-length workloads.
func SyntheticWorkload(dist LengthDist, n, minLen, maxLen int, tokenBudget int64, seed uint64) (BatchSpec, error) {
	return model.SyntheticBatchSpec(dist, n, minLen, maxLen, tokenBudget, seed)
}

// LengthDistByName resolves a distribution name ("uniform", "bimodal",
// "longtail") and reports whether it exists.
func LengthDistByName(name string) (LengthDist, bool) { return model.LengthDistByName(name) }

// Schedule types.
type (
	// Method names a pipeline parallelism.
	Method = sched.Method
	// Plan is a static pipeline schedule consumable by both engines.
	Plan = sched.Plan
	// ScheduleConfig carries pipeline size, micro batches and layers.
	ScheduleConfig = sched.Config
	// Costs is the cost book plans are annotated with.
	Costs = sched.Costs
	// BuildParams carries method-specific build knobs for the registry.
	BuildParams = sched.BuildParams
	// HelixOptions selects the HelixPipe variant.
	HelixOptions = core.Options
)

// Autotuner types (Session.Autotune).
type (
	// TuneSpec constrains the autotuner's configuration search.
	TuneSpec = tune.Spec
	// TuneResult is the outcome of one autotuner run: pruning accounting,
	// best-per-seqlen picks and the throughput-vs-peak-memory frontier.
	TuneResult = tune.Result
	// TunePoint is one evaluated configuration of an autotuner run.
	TunePoint = tune.Point
	// TuneCandidate is one grid point of the autotuner's search space.
	TuneCandidate = tune.Candidate
	// TuneWorkload is one named variable-length workload of a TuneSpec.
	TuneWorkload = tune.WorkloadSpec
)

// The autotuner's ranking objectives (TuneSpec.Objective).
const (
	TuneObjectiveThroughput      = tune.ObjectiveThroughput
	TuneObjectiveLatencyPerToken = tune.ObjectiveLatencyPerToken
)

// The autotuner's "why pruned" constraint names (TuneResult.Pruned keys).
const (
	TunePruneGeometry  = tune.PruneGeometry
	TunePruneMemory    = tune.PruneMemory
	TunePruneBuild     = tune.PruneBuild
	TunePruneSim       = tune.PruneSim
	TunePrunePlacement = tune.PrunePlacement
)

// Simulation types.
type (
	// SimResult is a simulated iteration's metrics.
	SimResult = sim.Result
	// SimOptions tunes the simulator.
	SimOptions = sim.Options
	// ExperimentTable is a rendered experiment result.
	ExperimentTable = bench.Table
)

// The implemented pipeline parallelisms.
const (
	MethodGPipe            = sched.MethodGPipe
	Method1F1B             = sched.Method1F1B
	MethodInterleaved      = sched.MethodInterleaved
	MethodZB1P             = sched.MethodZB1P
	MethodZB2P             = sched.MethodZB2P
	MethodAdaPipe          = sched.MethodAdaPipe
	MethodHelixNaive       = sched.MethodHelixNaive
	MethodHelix            = sched.MethodHelix
	MethodHelixNoRecompute = sched.MethodHelixNoRecompute
)

// Model presets (paper Table 3 plus the 13B model of Figure 4).
func Model1B3() ModelConfig { return model.Model1B3() }
func Model3B() ModelConfig  { return model.Model3B() }
func Model7B() ModelConfig  { return model.Model7B() }
func Model13B() ModelConfig { return model.Model13B() }

// TinyModel returns the miniature configuration used by the numeric runtime.
func TinyModel() ModelConfig { return model.TinyTest() }

// ModelByName resolves a model preset by name ("1.3B", "3B", "7B", "13B",
// "tiny") and reports whether it exists.
func ModelByName(name string) (ModelConfig, bool) {
	if name == "tiny" {
		return model.TinyTest(), true
	}
	return model.PresetByName(name)
}

// ModelNames lists every model preset name ModelByName resolves, paper
// models first.
func ModelNames() []string {
	presets := model.Presets()
	names := make([]string, 0, len(presets)+1)
	for _, mc := range presets {
		names = append(names, mc.Name)
	}
	return append(names, "tiny")
}

// Cluster presets (paper section 5.1 testbeds).
func H20Cluster() ClusterSpec  { return costmodel.H20Cluster() }
func A800Cluster() ClusterSpec { return costmodel.A800Cluster() }

// Methods lists every registered pipeline parallelism, baselines first.
func Methods() []Method { return sched.Methods() }

// UnitCosts returns the didactic 1:3:2 cost book of the paper's figures.
func UnitCosts(commTime float64) Costs { return sched.UnitCosts(commTime) }

// BuildMethod constructs any registered method's plan from an explicit
// schedule configuration, cost book and build parameters. The plan may be
// carved from a recycled slab and is the caller's: nothing recycles it.
func BuildMethod(method Method, cfg ScheduleConfig, costs Costs, p BuildParams) (*Plan, error) {
	return sched.Build(method, cfg, costs, p)
}

// AllExperiments regenerates every paper table and figure.
func AllExperiments() ([]*ExperimentTable, error) { return bench.All() }
