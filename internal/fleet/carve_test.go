package fleet

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/cluster"
)

// carveLinks are few on purpose, so random topologies tie on every link
// field and the canonical order falls through to the node index.
var carveLinks = []cluster.Link{
	{Class: cluster.ClassNVLink, GBps: 200, LatencySec: 6e-6},
	{Class: cluster.ClassNVLink, GBps: 450, LatencySec: 6e-6},
	{Class: cluster.ClassNVLink, GBps: 200, LatencySec: 7e-6},
	{Class: cluster.ClassPCIe, GBps: 24, LatencySec: 4e-6},
	{Class: cluster.ClassIB, GBps: 4 * 12.5 * 0.92, LatencySec: 14e-6},
}

// TestCarveMatchesReference pins Carve and Signature to the map-and-fmt
// versions they replaced (carve_ref_test.go) on random topologies whose
// nodes name no GPU of their own, or the cluster's: the same sub-cluster,
// the same device map and the same signature bytes, for device sets in
// random order.
func TestCarveMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(29, 2))
	for trial := 0; trial < 500; trial++ {
		c := cluster.Cluster{Name: fmt.Sprintf("random%d", trial), GPU: "A800", Inter: carveLinks[4]}
		for n := 1 + r.IntN(6); n > 0; n-- {
			node := cluster.Node{Devices: 1 + r.IntN(8), Intra: carveLinks[r.IntN(len(carveLinks))]}
			if r.IntN(2) == 0 {
				node.GPU = c.GPU // the cluster's own: carves name no GPU for it
			}
			c.Nodes = append(c.Nodes, node)
		}
		devs := r.Perm(c.Devices())[:1+r.IntN(c.Devices())]
		sub, l2g := Carve(c, devs)
		want, wantL2G := refCarve(c, devs)
		if !reflect.DeepEqual(sub, want) || !reflect.DeepEqual(l2g, wantL2G) {
			t.Fatalf("%s devices %v:\n got %+v %v\nwant %+v %v", c.Name, devs, sub, l2g, want, wantL2G)
		}
		if got, want := Signature(sub), refSignature(sub); got != want {
			t.Fatalf("%s devices %v: signature %q, reference %q", c.Name, devs, got, want)
		}
	}
}

// TestSignatureFormatsLikeFmt pins Signature's number formatting to %g on
// values where shortest formatting has edge cases.
func TestSignatureFormatsLikeFmt(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, 46.00000000000001, 1e-5, 6e-06, 123456,
		1234567, 1e21, 1e-7, 0.1 + 0.2, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -3.5} {
		l := cluster.Link{Class: cluster.ClassIB, GBps: v, LatencySec: v}
		c := cluster.Cluster{GPU: "H20", Nodes: []cluster.Node{{Devices: 2, Intra: l}, {Devices: 3, Intra: l}}, Inter: l}
		if got, want := Signature(c), refSignature(c); got != want {
			t.Errorf("value %v: signature %q, %%g gives %q", v, got, want)
		}
	}
}

// TestCarveKeepsNodeGPU pins that a carve keeps each node's GPU: on the
// mixed-generation preset an H20-node carve names H20, an A800-node carve
// names none (the cluster's own), and their signatures differ. On a topology
// whose two generations share one link, the GPU alone tells the carves
// apart, and the canonical order puts the cluster's own generation first.
func TestCarveKeepsNodeGPU(t *testing.T) {
	mixed := cluster.DGXA800x2H20x2()
	h20, _ := Carve(mixed, []int{16, 17, 18, 19})
	a800, _ := Carve(mixed, []int{0, 1, 2, 3})
	if h20.Nodes[0].GPU != "H20" || a800.Nodes[0].GPU != "" {
		t.Fatalf("carve GPUs: H20 node %q, A800 node %q; want \"H20\" and none", h20.Nodes[0].GPU, a800.Nodes[0].GPU)
	}
	if h20.GPUOf(0) != "H20" || a800.GPUOf(0) != "A800" {
		t.Fatalf("carved devices price as %s and %s, want H20 and A800", h20.GPUOf(0), a800.GPUOf(0))
	}
	if Signature(h20) == Signature(a800) {
		t.Fatalf("A800 and H20 carves share signature %q", Signature(h20))
	}

	link := carveLinks[0]
	same := cluster.Cluster{Name: "same-link", GPU: "A800", Inter: carveLinks[4], Nodes: []cluster.Node{
		{Devices: 4, Intra: link}, {Devices: 4, Intra: link, GPU: "H20"},
		{Devices: 4, Intra: link, GPU: "H20"}, {Devices: 4, Intra: link},
	}}
	onA800, _ := Carve(same, []int{0, 1})
	onH20, _ := Carve(same, []int{4, 5})
	if Signature(onA800) == Signature(onH20) {
		t.Fatalf("A800 and H20 carves share signature %q", Signature(onA800))
	}
	// Two devices on each generation, from either pair of nodes.
	sub1, l2g1 := Carve(same, []int{0, 1, 4, 5})
	sub2, l2g2 := Carve(same, []int{8, 9, 12, 13})
	if !reflect.DeepEqual(sub1.Nodes, sub2.Nodes) || Signature(sub1) != Signature(sub2) {
		t.Fatalf("equivalent mixed carves differ:\n%+v\n%+v", sub1.Nodes, sub2.Nodes)
	}
	if sub1.Nodes[0].GPU != "" || sub1.Nodes[1].GPU != "H20" {
		t.Fatalf("canonical order: want the cluster's GPU first, got %+v", sub1.Nodes)
	}
	if want := []int{0, 1, 4, 5}; !reflect.DeepEqual(l2g1, want) {
		t.Fatalf("device map %v, want %v", l2g1, want)
	}
	if want := []int{12, 13, 8, 9}; !reflect.DeepEqual(l2g2, want) {
		t.Fatalf("device map %v, want %v", l2g2, want)
	}
}
