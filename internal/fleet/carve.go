package fleet

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/cluster"
)

// Carve builds the sub-cluster a device set forms: one sub-node per physical
// node the set touches, carrying that node's intra link and GPU, joined by the
// parent fabric. Node groups are ordered canonically by shape (larger groups
// first, then link class/speed, then GPU, then parent node index), so two
// carves of the same shape — 4 NVLink devices here or there — produce
// identical sub-clusters and share spec→Report cache entries. A node's GPU is
// kept only where it differs from the cluster-wide one, so homogeneous carves
// name none. The second return value maps each sub-cluster-local device index
// back to its fleet-global device id.
func Carve(c cluster.Cluster, devs []int) (cluster.Cluster, []int) {
	total := c.Devices()
	for _, d := range devs {
		if d < 0 || d >= total {
			panic(fmt.Sprintf("fleet: carve names device %d outside cluster %s", d, c.Name))
		}
	}
	sorted := slices.Clone(devs)
	slices.Sort(sorted)
	// Devices are numbered node-major, so the sorted ids fall into one run
	// per node: sorted[g.lo:g.hi] are the group's devices, ascending.
	var buf [8]carveGroup
	groups := buf[:0]
	node, end := -1, 0
	for i, d := range sorted {
		for d >= end {
			node++
			end += c.Nodes[node].Devices
		}
		if len(groups) == 0 || groups[len(groups)-1].node != node {
			n := &c.Nodes[node]
			gpu := n.GPU
			if gpu == c.GPU {
				gpu = ""
			}
			groups = append(groups, carveGroup{node: node, lo: i, intra: n.Intra, gpu: gpu})
		}
		groups[len(groups)-1].hi = i + 1
	}
	// Insertion sort: a carve touches few nodes.
	for i := 1; i < len(groups); i++ {
		for j := i; j > 0 && groups[j].before(&groups[j-1]); j-- {
			groups[j], groups[j-1] = groups[j-1], groups[j]
		}
	}

	sub := cluster.Cluster{GPU: c.GPU, Nodes: make([]cluster.Node, len(groups)), Inter: c.Inter}
	local2global := sorted
	if len(groups) > 1 {
		local2global = make([]int, 0, len(sorted))
	}
	var nameBuf [64]byte
	name := append(append(nameBuf[:0], c.Name...), '/')
	for i, g := range groups {
		sub.Nodes[i] = cluster.Node{
			Name:    "carve" + strconv.Itoa(i),
			Devices: g.hi - g.lo,
			Intra:   g.intra,
			GPU:     g.gpu,
		}
		if len(groups) > 1 {
			local2global = append(local2global, sorted[g.lo:g.hi]...)
		}
		if i > 0 {
			name = append(name, '+')
		}
		name = strconv.AppendInt(name, int64(g.hi-g.lo), 10)
	}
	sub.Name = string(name)
	return sub, local2global
}

// carveGroup is one physical node's share of a carve.
type carveGroup struct {
	node, lo, hi int
	intra        cluster.Link
	gpu          string
}

// before is Carve's canonical group order.
func (g *carveGroup) before(h *carveGroup) bool {
	if g.hi-g.lo != h.hi-h.lo {
		return g.hi-g.lo > h.hi-h.lo
	}
	if g.intra.Class != h.intra.Class {
		return g.intra.Class < h.intra.Class
	}
	if g.intra.GBps != h.intra.GBps {
		return g.intra.GBps > h.intra.GBps
	}
	if g.intra.LatencySec != h.intra.LatencySec {
		return g.intra.LatencySec < h.intra.LatencySec
	}
	if g.gpu != h.gpu {
		return g.gpu < h.gpu
	}
	return g.node < h.node
}

// Signature renders everything about a carved sub-cluster that affects a
// simulation on it — GPU model, node sizes, link classes and speeds, and any
// node's own GPU — as a canonical string, the cache-key component that lets
// equivalent carve shapes share spec→Report cache entries. Numbers print as
// %g prints them.
func Signature(c cluster.Cluster) string {
	var buf [160]byte
	b := append(append(buf[:0], "gpu="...), c.GPU...)
	for _, n := range c.Nodes {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(n.Devices), 10)
		b = appendLink(append(b, "x("...), n.Intra)
		if n.GPU != "" {
			b = append(append(b, ",gpu="...), n.GPU...)
		}
		b = append(b, ')')
	}
	if len(c.Nodes) > 1 {
		b = appendLink(append(b, "|inter=("...), c.Inter)
		b = append(b, ')')
	}
	return string(b)
}

// appendLink appends a link as "class,GBps,latency".
func appendLink(b []byte, l cluster.Link) []byte {
	b = append(append(b, l.Class...), ',')
	b = append(strconv.AppendFloat(b, l.GBps, 'g', -1, 64), ',')
	return strconv.AppendFloat(b, l.LatencySec, 'g', -1, 64)
}
