// Package costmodel converts the element/FLOP accounting of internal/model
// into simulated time and bytes under a concrete GPU cluster, replacing the
// paper's H20 and A800 testbeds.
//
// Only ratios matter for reproducing the paper's figures: the paper itself
// explains its A800 results by "A800 has double the computation power of H20"
// and "the A800 cluster has half the communication bandwidth of the H20
// cluster" (section 5.2). The spec constants below encode exactly those
// published ratios, with absolute values taken from vendor datasheets. All
// calibration constants live in this file so EXPERIMENTS.md can point at a
// single source of truth.
package costmodel

import (
	"fmt"
	"strings"
)

// GPUSpec describes one GPU type at the fidelity the cost model needs.
type GPUSpec struct {
	// Name is the marketing name, e.g. "H20".
	Name string
	// DenseFP16TFLOPS is the peak dense fp16/bf16 tensor-core throughput of
	// one GPU, in TFLOPS.
	DenseFP16TFLOPS float64
	// HBMGBps is the HBM memory bandwidth of one GPU in GB/s, used to price
	// bandwidth-bound vector work (LayerNorm, GeLU, flash-attention traffic).
	HBMGBps float64
	// MemoryGB is the HBM capacity in GB (both testbed GPUs have 80+ GB;
	// H20 is the 96 GB part).
	MemoryGB float64
	// NVLinkGBps is the intra-node NVLink bandwidth per GPU in GB/s
	// (unidirectional), used for sequence-parallel collectives.
	NVLinkGBps float64
	// GEMMEfficiency is the fraction of peak FLOPS realised by large GEMMs
	// (model-flop utilisation of the linear layers).
	GEMMEfficiency float64
	// AttnEfficiency is the fraction of peak FLOPS realised by flash
	// attention, which is lower than plain GEMM efficiency.
	AttnEfficiency float64
}

// Validate reports an error if the spec is not physically meaningful.
func (g GPUSpec) Validate() error {
	switch {
	case g.DenseFP16TFLOPS <= 0:
		return fmt.Errorf("costmodel: %s: DenseFP16TFLOPS must be positive", g.Name)
	case g.HBMGBps <= 0:
		return fmt.Errorf("costmodel: %s: HBMGBps must be positive", g.Name)
	case g.MemoryGB <= 0:
		return fmt.Errorf("costmodel: %s: MemoryGB must be positive", g.Name)
	case g.NVLinkGBps <= 0:
		return fmt.Errorf("costmodel: %s: NVLinkGBps must be positive", g.Name)
	case g.GEMMEfficiency <= 0 || g.GEMMEfficiency > 1:
		return fmt.Errorf("costmodel: %s: GEMMEfficiency must be in (0,1]", g.Name)
	case g.AttnEfficiency <= 0 || g.AttnEfficiency > 1:
		return fmt.Errorf("costmodel: %s: AttnEfficiency must be in (0,1]", g.Name)
	}
	return nil
}

// H20 returns the spec of the NVIDIA H20 GPU used by the paper's first
// cluster: low compute (~148 TFLOPS dense fp16) but Hopper-class HBM3 and
// NVLink.
func H20() GPUSpec {
	return GPUSpec{
		Name:            "H20",
		DenseFP16TFLOPS: 148,
		HBMGBps:         4000,
		MemoryGB:        96,
		NVLinkGBps:      450,
		GEMMEfficiency:  0.70,
		AttnEfficiency:  0.38,
	}
}

// A800 returns the spec of the NVIDIA A800 GPU used by the paper's second
// cluster: Ampere-class, about double the H20's compute ("A800 GPU has
// double computation power compared to H20", section 5.2).
func A800() GPUSpec {
	return GPUSpec{
		Name:            "A800",
		DenseFP16TFLOPS: 312,
		HBMGBps:         2039,
		MemoryGB:        80,
		NVLinkGBps:      200,
		GEMMEfficiency:  0.62,
		AttnEfficiency:  0.35,
	}
}

// GPUs returns the built-in GPU specs.
func GPUs() []GPUSpec { return []GPUSpec{H20(), A800()} }

// GPUByName returns the named GPU spec ("H20" or "A800") case-insensitively
// and reports whether it exists. Heterogeneous topologies name per-node
// device generations with these names.
func GPUByName(name string) (GPUSpec, bool) {
	for _, g := range GPUs() {
		if strings.EqualFold(g.Name, name) {
			return g, true
		}
	}
	return GPUSpec{}, false
}

// ClusterSpec describes a GPU cluster: identical nodes of GPUsPerNode GPUs
// connected by InfiniBand. One pipeline stage maps to one node, matching the
// paper's deployment ("one pipeline stage was mapped to one node").
type ClusterSpec struct {
	// Name labels the cluster, e.g. "H20-NDR".
	Name string
	// GPU is the GPU type of every node.
	GPU GPUSpec
	// GPUsPerNode is the node size (8 on both paper clusters).
	GPUsPerNode int
	// InterNodeGBps is the aggregate unidirectional InfiniBand bandwidth of
	// one node in GB/s: number of HCAs x per-port rate x wire efficiency.
	InterNodeGBps float64
	// InterNodeLatency is the per-message latency of an inter-node transfer
	// in seconds (rendezvous + switch traversal).
	InterNodeLatency float64
	// NVLinkLatency is the per-collective base latency inside a node.
	NVLinkLatency float64
	// CommSMPenalty models NCCL's use of GPU SMs for communication: the
	// fraction of compute throughput lost while a transfer overlaps compute.
	// The paper observes "only a marginal delay in computation time"
	// (section 5.3), so this stays small.
	CommSMPenalty float64
}

// NVLink returns the flat cluster's intra-node link: each GPU's NVLink
// bandwidth at the cluster's per-collective NVLink latency.
func (cl ClusterSpec) NVLink() LinkSpec {
	return LinkSpec{Class: "nvlink", GBps: cl.GPU.NVLinkGBps, LatencySec: cl.NVLinkLatency}
}

// Validate reports an error if the cluster spec is not usable.
func (cl ClusterSpec) Validate() error {
	if err := cl.GPU.Validate(); err != nil {
		return err
	}
	switch {
	case cl.GPUsPerNode <= 0:
		return fmt.Errorf("costmodel: %s: GPUsPerNode must be positive", cl.Name)
	case cl.InterNodeGBps <= 0:
		return fmt.Errorf("costmodel: %s: InterNodeGBps must be positive", cl.Name)
	case cl.InterNodeLatency < 0 || cl.NVLinkLatency < 0:
		return fmt.Errorf("costmodel: %s: latencies must be non-negative", cl.Name)
	case cl.CommSMPenalty < 0 || cl.CommSMPenalty >= 1:
		return fmt.Errorf("costmodel: %s: CommSMPenalty must be in [0,1)", cl.Name)
	}
	return nil
}

// H20Cluster returns the paper's first testbed: H20 nodes with four 200 Gb/s
// InfiniBand NDR HCAs each (aggregate 100 GB/s per node at 100% wire rate;
// we apply a 0.80 transport efficiency).
func H20Cluster() ClusterSpec {
	return ClusterSpec{
		Name:             "H20",
		GPU:              H20(),
		GPUsPerNode:      8,
		InterNodeGBps:    4 * 25.0 * 0.92, // 4 HCAs x 200Gb/s x RDMA transport efficiency
		InterNodeLatency: 12e-6,
		NVLinkLatency:    6e-6,
		CommSMPenalty:    0.03,
	}
}

// A800Cluster returns the paper's second testbed: A800 nodes with four
// 100 Gb/s InfiniBand HDR HCAs each — half the H20 cluster's bandwidth.
func A800Cluster() ClusterSpec {
	return ClusterSpec{
		Name:             "A800",
		GPU:              A800(),
		GPUsPerNode:      8,
		InterNodeGBps:    4 * 12.5 * 0.92, // 4 HCAs x 100Gb/s x RDMA transport efficiency
		InterNodeLatency: 14e-6,
		NVLinkLatency:    6e-6,
		CommSMPenalty:    0.03,
	}
}

// Clusters returns the two paper testbeds.
func Clusters() []ClusterSpec { return []ClusterSpec{H20Cluster(), A800Cluster()} }

// ClusterByName returns the named testbed ("H20" or "A800") and reports
// whether it exists.
func ClusterByName(name string) (ClusterSpec, bool) {
	for _, cl := range Clusters() {
		if cl.Name == name {
			return cl, true
		}
	}
	return ClusterSpec{}, false
}
