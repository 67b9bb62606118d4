// Package cluster models the physical topology of a GPU cluster — nodes of
// devices joined by intra-node links (NVLink, PCIe) and an inter-node fabric
// (InfiniBand) — and the placement of pipeline stages onto its devices.
//
// The flat cost model of internal/costmodel prices every inter-stage message
// against a single NIC bandwidth, as if all stage pairs were one hop apart.
// This package replaces that assumption: a Placement maps each pipeline stage
// to a concrete device, the link class between two placed devices determines
// each transfer's bandwidth and latency, and the placement generators search
// for mappings that minimize the modeled point-to-point cost of a schedule's
// per-(stage, peer) traffic matrix. Perturbations (a slow device, a degraded
// link class, per-iteration compute jitter) open fault and straggler
// scenarios on top of the same model.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// LinkClass names a class of interconnect. Every transfer in a simulated
// iteration is priced by the class of the link between its endpoints.
type LinkClass string

const (
	// ClassNVLink is the intra-node NVLink/NVSwitch fabric.
	ClassNVLink LinkClass = "nvlink"
	// ClassPCIe is an intra-node PCIe switch (no NVLink).
	ClassPCIe LinkClass = "pcie"
	// ClassIB is the inter-node InfiniBand fabric.
	ClassIB LinkClass = "ib"
	// ClassEthernet is an inter-node RoCE/Ethernet fabric.
	ClassEthernet LinkClass = "ethernet"
)

// Link describes one link class instance: its bandwidth and per-message
// latency.
type Link struct {
	// Class names the interconnect class.
	Class LinkClass `json:"class"`
	// GBps is the unidirectional bandwidth in GB/s.
	GBps float64 `json:"gbps"`
	// LatencySec is the per-message latency in seconds.
	LatencySec float64 `json:"latency_sec"`
}

// Validate reports an error when the link is not physically meaningful.
func (l Link) Validate() error {
	switch {
	case l.Class == "":
		return fmt.Errorf("cluster: link has no class")
	case l.GBps <= 0:
		return fmt.Errorf("cluster: %s link bandwidth must be positive, got %g", l.Class, l.GBps)
	case l.LatencySec < 0:
		return fmt.Errorf("cluster: %s link latency must be non-negative, got %g", l.Class, l.LatencySec)
	}
	return nil
}

// BytesPerSec returns the link bandwidth in bytes per second.
func (l Link) BytesPerSec() float64 { return l.GBps * 1e9 }

// Node is one machine of the cluster: a set of devices joined by an
// intra-node link.
type Node struct {
	// Name optionally labels the node ("node0").
	Name string `json:"name,omitempty"`
	// Devices is the number of pipeline-capable devices on the node. One
	// pipeline stage occupies one device.
	Devices int `json:"devices"`
	// Intra is the link between any two devices of this node.
	Intra Link `json:"intra"`
	// GPU optionally names the costmodel GPU spec of this node's devices
	// ("A800", "H20"), overriding the cluster-wide GPU name. Mixed-generation
	// clusters set it per node; empty inherits the cluster's.
	GPU string `json:"gpu,omitempty"`
}

// Cluster is a topology: nodes of devices, an intra-node link per node, and
// one inter-node fabric joining all node pairs. Devices are globally indexed
// node-major: node 0 holds devices [0, Nodes[0].Devices), node 1 the next
// block, and so on.
type Cluster struct {
	// Name labels the cluster ("DGX-A800x4").
	Name string `json:"name"`
	// GPU optionally names the costmodel GPU/cluster preset ("A800", "H20")
	// that prices compute on this topology's devices.
	GPU string `json:"gpu,omitempty"`
	// Nodes are the machines of the cluster.
	Nodes []Node `json:"nodes"`
	// Inter is the fabric between any two devices on different nodes.
	// Ignored (and may be zero) on single-node clusters.
	Inter Link `json:"inter"`
}

// Validate reports an error when the topology cannot place a pipeline.
func (c Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster: %s has no nodes", c.Name)
	}
	total := 0
	for i, n := range c.Nodes {
		if n.Devices <= 0 {
			return fmt.Errorf("cluster: %s node %d has %d devices", c.Name, i, n.Devices)
		}
		if n.Devices > math.MaxInt-total {
			return fmt.Errorf("cluster: %s device total overflows at node %d", c.Name, i)
		}
		total += n.Devices
		if n.Devices > 1 {
			if err := n.Intra.Validate(); err != nil {
				return fmt.Errorf("cluster: %s node %d intra link: %w", c.Name, i, err)
			}
		}
	}
	if len(c.Nodes) > 1 {
		if err := c.Inter.Validate(); err != nil {
			return fmt.Errorf("cluster: %s inter link: %w", c.Name, err)
		}
	}
	return nil
}

// Devices returns the total device count across all nodes.
func (c Cluster) Devices() int {
	total := 0
	for _, n := range c.Nodes {
		total += n.Devices
	}
	return total
}

// nodeBases returns the first global device id of each node.
func (c Cluster) nodeBases() []int {
	base := make([]int, len(c.Nodes))
	for i := 1; i < len(c.Nodes); i++ {
		base[i] = base[i-1] + c.Nodes[i-1].Devices
	}
	return base
}

// NodeOf returns the node index holding the given global device id, or -1
// when the id is out of range.
func (c Cluster) NodeOf(device int) int {
	if device < 0 {
		return -1
	}
	for i, n := range c.Nodes {
		if device < n.Devices {
			return i
		}
		device -= n.Devices
	}
	return -1
}

// LinkBetween returns the link joining two devices: the node's intra link
// when they share a node, the inter fabric otherwise. Both devices must be
// in range (guaranteed after Validate on cluster and placement).
func (c Cluster) LinkBetween(d1, d2 int) Link { return c.nodeLink(c.NodeOf(d1), c.NodeOf(d2)) }

// nodeLink returns the link joining a device on node n1 to one on node n2:
// a node's devices are interchangeable to the cost model.
func (c Cluster) nodeLink(n1, n2 int) Link {
	if n1 == n2 && n1 >= 0 {
		return c.Nodes[n1].Intra
	}
	return c.Inter
}

// GPUOf returns the GPU spec name of the node holding the given global
// device id: the node's own when set, the cluster-wide name otherwise (which
// may itself be empty on anonymous custom topologies).
func (c Cluster) GPUOf(device int) string {
	if n := c.NodeOf(device); n >= 0 && c.Nodes[n].GPU != "" {
		return c.Nodes[n].GPU
	}
	return c.GPU
}

// Heterogeneous reports whether any node overrides the cluster-wide GPU name
// with a different one — a mixed-generation cluster.
func (c Cluster) Heterogeneous() bool {
	for _, n := range c.Nodes {
		if n.GPU != "" && n.GPU != c.GPU {
			return true
		}
	}
	return false
}

// Classes returns the distinct link classes of the topology, sorted by name.
func (c Cluster) Classes() []LinkClass {
	seen := map[LinkClass]bool{}
	for _, n := range c.Nodes {
		if n.Devices > 1 {
			seen[n.Intra.Class] = true
		}
	}
	if len(c.Nodes) > 1 {
		seen[c.Inter.Class] = true
	}
	out := make([]LinkClass, 0, len(seen))
	for class := range seen {
		out = append(out, class)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders a one-line topology summary ("4x8 devices, nvlink
// 200 GB/s intra, ib 46 GB/s inter").
func (c Cluster) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: ", c.Name)
	if uniform, dev := c.uniformNodes(); uniform {
		fmt.Fprintf(&b, "%dx%d devices", len(c.Nodes), dev)
	} else {
		fmt.Fprintf(&b, "%d nodes, %d devices", len(c.Nodes), c.Devices())
	}
	if c.Heterogeneous() {
		fmt.Fprintf(&b, " (%s)", c.gpuMix())
	}
	if len(c.Nodes) > 0 && c.Nodes[0].Devices > 1 {
		l := c.Nodes[0].Intra
		fmt.Fprintf(&b, ", %s %.0f GB/s intra", l.Class, l.GBps)
	}
	if len(c.Nodes) > 1 {
		fmt.Fprintf(&b, ", %s %.0f GB/s inter", c.Inter.Class, c.Inter.GBps)
	}
	return b.String()
}

// gpuMix renders the node GPU generations as run-length groups in node
// order, e.g. "2xA800+2xH20".
func (c Cluster) gpuMix() string {
	var b strings.Builder
	run, count := "", 0
	flush := func() {
		if count == 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%dx%s", count, run)
	}
	for _, n := range c.Nodes {
		gpu := n.GPU
		if gpu == "" {
			gpu = c.GPU
		}
		if gpu != run {
			flush()
			run, count = gpu, 1
		} else {
			count++
		}
	}
	flush()
	return b.String()
}

func (c Cluster) uniformNodes() (bool, int) {
	if len(c.Nodes) == 0 {
		return false, 0
	}
	dev := c.Nodes[0].Devices
	for _, n := range c.Nodes[1:] {
		if n.Devices != dev {
			return false, 0
		}
	}
	return true, dev
}

// FromJSON decodes a custom cluster topology from JSON and validates it.
// The schema is the Cluster struct itself:
//
//	{
//	  "name": "my-cluster",
//	  "gpu": "A800",
//	  "nodes": [
//	    {"devices": 8, "intra": {"class": "nvlink", "gbps": 200, "latency_sec": 6e-6}},
//	    {"devices": 8, "intra": {"class": "nvlink", "gbps": 200, "latency_sec": 6e-6}}
//	  ],
//	  "inter": {"class": "ib", "gbps": 46, "latency_sec": 14e-6}
//	}
func FromJSON(r io.Reader) (Cluster, error) {
	var c Cluster
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Cluster{}, fmt.Errorf("cluster: decoding topology JSON: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Cluster{}, err
	}
	return c, nil
}

// LoadFile reads and validates a custom cluster topology from a JSON file.
func LoadFile(path string) (Cluster, error) {
	f, err := os.Open(path)
	if err != nil {
		return Cluster{}, fmt.Errorf("cluster: %w", err)
	}
	defer f.Close()
	return FromJSON(f)
}

// uniformCluster builds n identical nodes.
func uniformCluster(name, gpu string, nodes, devices int, intra, inter Link) Cluster {
	c := Cluster{Name: name, GPU: gpu, Inter: inter}
	for i := 0; i < nodes; i++ {
		c.Nodes = append(c.Nodes, Node{
			Name:    fmt.Sprintf("node%d", i),
			Devices: devices,
			Intra:   intra,
		})
	}
	return c
}

// NVLinkA800 is the A800 intra-node fabric (400 GB/s NVLink, halved per
// export restrictions to 200 GB/s lanes as in the costmodel GPU spec).
func nvlinkA800() Link { return Link{Class: ClassNVLink, GBps: 200, LatencySec: 6e-6} }

// nvlinkH20 is the Hopper-class NVLink fabric of the H20.
func nvlinkH20() Link { return Link{Class: ClassNVLink, GBps: 450, LatencySec: 6e-6} }

// ibA800 matches the costmodel A800 testbed: four 100 Gb/s HDR HCAs per node
// at 0.92 transport efficiency.
func ibA800() Link { return Link{Class: ClassIB, GBps: 4 * 12.5 * 0.92, LatencySec: 14e-6} }

// ibH20 matches the costmodel H20 testbed: four 200 Gb/s NDR HCAs per node.
func ibH20() Link { return Link{Class: ClassIB, GBps: 4 * 25.0 * 0.92, LatencySec: 12e-6} }

// DGXA800x4 returns a 4-node cluster of 8-GPU A800 nodes: NVLink inside each
// node, HDR InfiniBand between nodes — the multi-node shape of the paper's
// A800 testbed.
func DGXA800x4() Cluster {
	return uniformCluster("DGX-A800x4", "A800", 4, 8, nvlinkA800(), ibA800())
}

// DGXH20x2 returns a 2-node cluster of 8-GPU H20 nodes: Hopper NVLink inside
// each node, NDR InfiniBand between them.
func DGXH20x2() Cluster {
	return uniformCluster("DGX-H20x2", "H20", 2, 8, nvlinkH20(), ibH20())
}

// PCIeBox returns a single commodity node: 8 A800-class devices behind a
// PCIe Gen4 switch, no NVLink and no second node. Every inter-stage hop pays
// PCIe bandwidth.
func PCIeBox() Cluster {
	return uniformCluster("PCIe-box", "A800", 1, 8,
		Link{Class: ClassPCIe, GBps: 24, LatencySec: 4e-6}, Link{})
}

// DGXA800x2H20x2 returns a mixed-generation 4-node cluster: two 8-GPU A800
// nodes followed by two 8-GPU H20 nodes, each with its own generation's
// NVLink fabric, joined by the slower cluster's HDR InfiniBand. It is the
// heterogeneous testbed of the placement-resolved cost books: the same stage
// prices differently depending on which generation it lands on.
func DGXA800x2H20x2() Cluster {
	c := Cluster{Name: "DGX-A800x2-H20x2", GPU: "A800", Inter: ibA800()}
	for i := 0; i < 2; i++ {
		c.Nodes = append(c.Nodes, Node{
			Name:    fmt.Sprintf("a800-%d", i),
			Devices: 8,
			Intra:   nvlinkA800(),
		})
	}
	for i := 0; i < 2; i++ {
		c.Nodes = append(c.Nodes, Node{
			Name:    fmt.Sprintf("h20-%d", i),
			Devices: 8,
			Intra:   nvlinkH20(),
			GPU:     "H20",
		})
	}
	return c
}

// presets are the built-in topologies' names and constructors, in listing
// order.
var presets = []struct {
	name  string
	build func() Cluster
}{
	{"DGX-A800x4", DGXA800x4},
	{"DGX-H20x2", DGXH20x2},
	{"PCIe-box", PCIeBox},
	{"DGX-A800x2-H20x2", DGXA800x2H20x2},
}

// Presets returns the built-in cluster topologies.
func Presets() []Cluster {
	out := make([]Cluster, len(presets))
	for i, p := range presets {
		out[i] = p.build()
	}
	return out
}

// PresetByName resolves a built-in topology case-insensitively and reports
// whether it exists. It builds only the topology it returns.
func PresetByName(name string) (Cluster, bool) {
	for _, p := range presets {
		if strings.EqualFold(p.name, name) {
			return p.build(), true
		}
	}
	return Cluster{}, false
}

// PresetListing renders the preset table — one line per topology — as the
// helix command prints it.
func PresetListing() string {
	var b strings.Builder
	for _, c := range Presets() {
		fmt.Fprintf(&b, "  %s\n", c)
	}
	return b.String()
}
