package fleet

// This file keeps Carve and Signature exactly as they stood before they were
// rebuilt without maps and fmt: the reference oracle of
// TestCarveMatchesReference on topologies whose nodes name no GPU of their
// own. Only the function names differ from the original.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
)

// refCarve builds the sub-cluster a device set forms: one sub-node per physical
// node the set touches, carrying that node's intra link, joined by the parent
// fabric. Node groups are ordered canonically by shape (larger groups first,
// then link class/speed, then parent node index), so two carves of the same
// shape — 4 NVLink devices here or there — produce identical sub-clusters and
// share spec→Report cache entries. The second return value maps each
// sub-cluster-local device index back to its fleet-global device id.
func refCarve(c cluster.Cluster, devs []int) (cluster.Cluster, []int) {
	byNode := map[int][]int{}
	for _, d := range devs {
		n := c.NodeOf(d)
		if n < 0 {
			panic(fmt.Sprintf("fleet: carve names device %d outside cluster %s", d, c.Name))
		}
		byNode[n] = append(byNode[n], d)
	}
	type group struct {
		node int
		devs []int
	}
	groups := make([]group, 0, len(byNode))
	for n, ds := range byNode {
		sort.Ints(ds)
		groups = append(groups, group{node: n, devs: ds})
	}
	sort.Slice(groups, func(a, b int) bool {
		ga, gb := groups[a], groups[b]
		if len(ga.devs) != len(gb.devs) {
			return len(ga.devs) > len(gb.devs)
		}
		la, lb := c.Nodes[ga.node].Intra, c.Nodes[gb.node].Intra
		if la.Class != lb.Class {
			return la.Class < lb.Class
		}
		if la.GBps != lb.GBps {
			return la.GBps > lb.GBps
		}
		if la.LatencySec != lb.LatencySec {
			return la.LatencySec < lb.LatencySec
		}
		return ga.node < gb.node
	})

	sub := cluster.Cluster{GPU: c.GPU, Inter: c.Inter}
	local2global := make([]int, 0, len(devs))
	for i, g := range groups {
		sub.Nodes = append(sub.Nodes, cluster.Node{
			Name:    fmt.Sprintf("carve%d", i),
			Devices: len(g.devs),
			Intra:   c.Nodes[g.node].Intra,
		})
		local2global = append(local2global, g.devs...)
	}
	sub.Name = fmt.Sprintf("%s/%s", c.Name, refShape(sub))
	return sub, local2global
}

// refShape renders the node-size profile of a cluster ("8+4+2").
func refShape(c cluster.Cluster) string {
	parts := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		parts[i] = fmt.Sprintf("%d", n.Devices)
	}
	return strings.Join(parts, "+")
}

// refSignature renders everything about a carved sub-cluster that affects a
// simulation on it — GPU model, node sizes, link classes and speeds — as a
// canonical string, the cache-key component that lets equivalent carve shapes
// share spec→Report cache entries.
func refSignature(c cluster.Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gpu=%s", c.GPU)
	for _, n := range c.Nodes {
		fmt.Fprintf(&b, "|%dx(%s,%g,%g)", n.Devices, n.Intra.Class, n.Intra.GBps, n.Intra.LatencySec)
	}
	if len(c.Nodes) > 1 {
		fmt.Fprintf(&b, "|inter=(%s,%g,%g)", c.Inter.Class, c.Inter.GBps, c.Inter.LatencySec)
	}
	return b.String()
}
