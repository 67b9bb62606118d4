package sched

import (
	"repro/internal/cluster"
	"repro/internal/costmodel"
)

// StageBook is the cost book of one placed pipeline stage: the stage's
// workload priced against its placed node — its real intra-node link class
// for sequence-parallel collectives, its device generation for compute, and
// its perturbation compute factor. The embedded MBCosts is the stage's
// uniform book; PerMB overrides it per micro batch on variable-length
// workloads, exactly like Costs itself.
type StageBook struct {
	MBCosts
	PerMB []MBCosts
}

// mb returns the stage's book for one micro batch, falling back to the
// stage's uniform book outside the override range. The row is the book's
// own, shared and read-only.
func (b *StageBook) mb(mb int) *MBCosts {
	if mb >= 0 && mb < len(b.PerMB) {
		return &b.PerMB[mb]
	}
	return &b.MBCosts
}

// placedWorkload resolves the workload to one placed stage of the topology:
// collectives priced on the placed node's intra link, compute on its device
// generation, durations stretched by its perturbation factor. The placed
// fields are comparable parts of the workload, so the cost-book memo keys on
// the placement signature automatically.
func placedWorkload(w costmodel.Workload, topo *cluster.Topology, stage int) costmodel.Workload {
	ws := w
	if l := topo.IntraLink(stage); l.GBps > 0 {
		ws.Link = costmodel.LinkSpec{Class: string(l.Class), GBps: l.GBps, LatencySec: l.LatencySec}
	}
	if name := topo.GPUName(stage); name != "" {
		if g, ok := costmodel.GPUByName(name); ok {
			ws.GPU = g
		}
	}
	ws.ComputeFactor = topo.ComputeFactor(stage)
	return ws
}
