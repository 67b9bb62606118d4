package cluster

import (
	"fmt"

	"repro/internal/rng"
)

// Topology is a resolved view of (cluster, placement, perturbation) for one
// pipeline: per-stage-pair link parameters and per-stage compute factors,
// ready for the simulator's inner loop. Build one with Resolve.
type Topology struct {
	// Cluster and Placement are the inputs the view was resolved from.
	Cluster   Cluster
	Placement Placement
	// Perturb is the applied perturbation (possibly the zero value).
	Perturb Perturb

	// bytesPerSec, latency and class are indexed [from][to] by stage.
	bytesPerSec [][]float64
	latency     [][]float64
	class       [][]LinkClass
	// computeFactor stretches stage compute durations (straggler + jitter).
	computeFactor []float64
	// intra is each stage's placed node's intra-node link, degraded like the
	// stage-pair links; gpuName is the placed node's GPU generation.
	intra   []Link
	gpuName []string
}

// Resolve validates the inputs and precomputes the per-stage-pair link
// parameters and per-stage compute factors the simulator reads. The jitter
// factors are drawn once per Resolve — one simulated iteration — from the
// perturbation seed, so identical inputs always resolve identically.
func Resolve(c Cluster, p Placement, pt Perturb) (*Topology, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(c); err != nil {
		return nil, err
	}
	if err := pt.Validate(c); err != nil {
		return nil, err
	}
	stages := p.Stages()
	t := &Topology{
		Cluster:       c,
		Placement:     p,
		Perturb:       pt,
		bytesPerSec:   make([][]float64, stages),
		latency:       make([][]float64, stages),
		class:         make([][]LinkClass, stages),
		computeFactor: make([]float64, stages),
		intra:         make([]Link, stages),
		gpuName:       make([]string, stages),
	}
	for i := 0; i < stages; i++ {
		node := c.NodeOf(p.Devices[i])
		intra := c.Nodes[node].Intra
		if pt.DegradeClass != "" && intra.Class == pt.DegradeClass {
			intra.GBps *= pt.DegradeFactor
		}
		t.intra[i] = intra
		t.gpuName[i] = c.GPUOf(p.Devices[i])
	}
	for i := 0; i < stages; i++ {
		t.bytesPerSec[i] = make([]float64, stages)
		t.latency[i] = make([]float64, stages)
		t.class[i] = make([]LinkClass, stages)
		for j := 0; j < stages; j++ {
			if j == i {
				continue
			}
			l := c.LinkBetween(p.Devices[i], p.Devices[j])
			bps := l.BytesPerSec()
			if pt.DegradeClass != "" && l.Class == pt.DegradeClass {
				bps *= pt.DegradeFactor
			}
			t.bytesPerSec[i][j] = bps
			t.latency[i][j] = l.LatencySec
			t.class[i][j] = l.Class
		}
	}
	stream := rng.New(pt.Seed)
	for i := 0; i < stages; i++ {
		f := 1.0
		if pt.SlowFactor > 1 && p.Devices[i] == pt.SlowDevice {
			f = pt.SlowFactor
		}
		if pt.Jitter > 0 {
			// One independent draw per stage per iteration, in stage order, so
			// the iteration reproduces exactly from the seed.
			f *= 1 + pt.Jitter*stream.Float64()
		}
		t.computeFactor[i] = f
	}
	return t, nil
}

// Stages returns the pipeline size the topology was resolved for.
func (t *Topology) Stages() int { return len(t.computeFactor) }

// Link returns the bandwidth (bytes/s), latency (seconds) and class of the
// link between two stages' placed devices.
func (t *Topology) Link(from, to int) (bytesPerSec, latencySec float64, class LinkClass) {
	return t.bytesPerSec[from][to], t.latency[from][to], t.class[from][to]
}

// ComputeFactor returns the compute stretch of one stage under the
// perturbation (1 when unperturbed). Placement-resolved cost books
// (sched.NewCosts) apply it; the simulator only reads the topology's links.
func (t *Topology) ComputeFactor(stage int) float64 { return t.computeFactor[stage] }

// IntraLink returns the intra-node link of the stage's placed node — the
// fabric its sequence-parallel collectives traverse — with any matching
// link-class degradation applied. Single-device nodes may report a zero
// link; callers fall back to flat pricing then.
func (t *Topology) IntraLink(stage int) Link { return t.intra[stage] }

// GPUName returns the GPU generation of the stage's placed node: the node's
// own spec name when set, the cluster-wide one otherwise (possibly empty on
// anonymous custom topologies).
func (t *Topology) GPUName(stage int) string { return t.gpuName[stage] }

// CheckStages reports an error when the topology was resolved for a
// different pipeline size than the plan presents.
func (t *Topology) CheckStages(stages int) error {
	if stages != t.Stages() {
		return fmt.Errorf("cluster: topology resolved for %d stages, plan has %d",
			t.Stages(), stages)
	}
	return nil
}
