package cluster

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rng"
)

// Placement maps pipeline stages onto cluster devices: Devices[stage] is the
// global device id the stage executes on. Devices are exclusive — two stages
// never share one.
type Placement struct {
	// Strategy names the generator that produced the placement ("contiguous",
	// "roundrobin", "greedy", or "custom" for hand-built ones).
	Strategy string `json:"strategy,omitempty"`
	// Devices holds one global device id per pipeline stage.
	Devices []int `json:"devices"`
}

// Placement strategy names accepted by Generate and the command-line flags.
const (
	// StrategyContiguous fills devices node by node: stages that are pipeline
	// neighbours tend to share a node and its fast intra link.
	StrategyContiguous = "contiguous"
	// StrategyRoundRobin deals stages across nodes like cards: stage i lands
	// on node i mod n. Maximally spreads load, maximally crosses the fabric.
	StrategyRoundRobin = "roundrobin"
	// StrategyGreedy places the most communication-heavy stages first, each
	// onto the device minimizing the modeled P2P cost to its already-placed
	// peers, then improves the result with a seeded swap local search.
	StrategyGreedy = "greedy"
)

// Strategies lists the built-in placement strategies in search order.
func Strategies() []string {
	return []string{StrategyContiguous, StrategyRoundRobin, StrategyGreedy}
}

// StrategyByName resolves a strategy name case-insensitively and reports
// whether it exists.
func StrategyByName(name string) (string, bool) {
	for _, s := range Strategies() {
		if strings.EqualFold(s, name) {
			return s, true
		}
	}
	return "", false
}

// Stages returns the pipeline size the placement maps.
func (p Placement) Stages() int { return len(p.Devices) }

// Validate reports an error when the placement cannot run on the cluster:
// out-of-range device ids or two stages sharing one device.
func (p Placement) Validate(c Cluster) error {
	if len(p.Devices) == 0 {
		return fmt.Errorf("cluster: placement maps no stages")
	}
	total := c.Devices()
	used := map[int]int{}
	for stage, dev := range p.Devices {
		if dev < 0 || dev >= total {
			return fmt.Errorf("cluster: placement stage %d on device %d, cluster %s has %d devices",
				stage, dev, c.Name, total)
		}
		if prev, ok := used[dev]; ok {
			return fmt.Errorf("cluster: placement stages %d and %d share device %d", prev, stage, dev)
		}
		used[dev] = stage
	}
	return nil
}

// String renders the placement as "strategy[dev0 dev1 ...]".
func (p Placement) String() string {
	strategy := p.Strategy
	if strategy == "" {
		strategy = "custom"
	}
	var b strings.Builder
	b.WriteString(strategy)
	b.WriteByte('[')
	for i, d := range p.Devices {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	b.WriteByte(']')
	return b.String()
}

// Contiguous places stages onto devices in global order: node 0 fills first,
// then node 1, and so on, so pipeline neighbours share nodes wherever the
// node size allows.
func Contiguous(c Cluster, stages int) (Placement, error) {
	if err := checkCapacity(c, stages); err != nil {
		return Placement{}, err
	}
	p := Placement{Strategy: StrategyContiguous, Devices: make([]int, stages)}
	for i := range p.Devices {
		p.Devices[i] = i
	}
	return p, nil
}

// RoundRobin deals stages across nodes: stage i lands on node i mod n, taking
// that node's next free device. Adjacent pipeline stages land on different
// nodes, so every boundary crosses the inter-node fabric — the adversarial
// baseline a topology-aware search must beat.
func RoundRobin(c Cluster, stages int) (Placement, error) {
	if err := checkCapacity(c, stages); err != nil {
		return Placement{}, err
	}
	base := c.nodeBases()
	next := make([]int, len(c.Nodes)) // devices already taken per node
	p := Placement{Strategy: StrategyRoundRobin, Devices: make([]int, stages)}
	node := 0
	for stage := 0; stage < stages; stage++ {
		// Skip full nodes; capacity was checked, so a free node exists.
		for next[node] >= c.Nodes[node].Devices {
			node = (node + 1) % len(c.Nodes)
		}
		p.Devices[stage] = base[node] + next[node]
		next[node]++
		node = (node + 1) % len(c.Nodes)
	}
	return p, nil
}

// SearchOptions tunes the greedy placement search.
type SearchOptions struct {
	// Seed drives the swap local search deterministically: the same seed on
	// the same inputs always returns the same placement.
	Seed uint64
	// Sweeps bounds the local-search improvement sweeps over all stage pairs;
	// zero picks a small default.
	Sweeps int
	// Perturb prices candidate links as the perturbation would leave them
	// (degraded classes at their degraded bandwidth), so the search scores
	// placements under the topology the plan will actually run on instead of
	// the clean one. The zero value searches the clean topology.
	Perturb Perturb
}

// Greedy searches a placement minimizing the modeled P2P cost of the traffic
// matrix: a constructive pass places the most communication-heavy stages
// first, each onto the free device with the cheapest links to its placed
// peers, then a seeded swap local search improves the result. traffic[i][j]
// is the bytes stage i sends stage j over one iteration (a method's
// registered traffic, sched.Traffic); a nil matrix degenerates to
// Contiguous.
func Greedy(c Cluster, stages int, traffic [][]int64, opt SearchOptions) (Placement, error) {
	if err := checkCapacity(c, stages); err != nil {
		return Placement{}, err
	}
	if len(traffic) == 0 {
		p, err := Contiguous(c, stages)
		p.Strategy = StrategyGreedy
		return p, err
	}
	if len(traffic) != stages {
		return Placement{}, fmt.Errorf("cluster: traffic matrix has %d rows for %d stages",
			len(traffic), stages)
	}
	// Symmetric per-pair volume: links are full duplex, so what matters per
	// pair is the heavier direction's share of both.
	pair := func(i, j int) int64 { return traffic[i][j] + traffic[j][i] }

	// Constructive pass: stages in descending total-traffic order, heaviest
	// first, ties broken by stage index for determinism.
	order := make([]int, stages)
	for i := range order {
		order[i] = i
	}
	totals := make([]int64, stages)
	for i := 0; i < stages; i++ {
		for j := 0; j < stages; j++ {
			if j != i {
				totals[i] += pair(i, j)
			}
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return totals[order[a]] > totals[order[b]] })

	// A node's devices are interchangeable to the cost model (every link
	// from one is its node's intra link or the inter fabric), so each node
	// offers only its first free device and the scan costs nodes, not
	// devices. Devices are taken in order, so the first cheapest node's
	// first free device is the lowest-index cheapest device.
	base := c.nodeBases()
	taken := make([]int, len(c.Nodes)) // devices already taken per node
	devOf := make([]int, stages)       // stage -> device
	nodeOf := make([]int, stages)      // stage -> node
	for i := range devOf {
		devOf[i] = -1
	}
	for _, stage := range order {
		bestNode, bestCost := -1, 0.0
		for n, node := range c.Nodes {
			if taken[n] == node.Devices {
				continue
			}
			cost := 0.0
			for peer := 0; peer < stages; peer++ {
				if devOf[peer] < 0 || peer == stage {
					continue
				}
				cost += linkCost(opt.Perturb.Apply(c.nodeLink(n, nodeOf[peer])), pair(stage, peer))
			}
			if bestNode < 0 || cost < bestCost {
				bestNode, bestCost = n, cost
			}
		}
		devOf[stage], nodeOf[stage] = base[bestNode]+taken[bestNode], bestNode
		taken[bestNode]++
	}

	// Seeded swap local search: repeatedly try exchanging two stages' devices
	// in a seeded random order, keeping strictly improving swaps.
	sweeps := opt.Sweeps
	if sweeps <= 0 {
		sweeps = 4
	}
	stream := rng.New(opt.Seed)
	flows := trafficPairs(traffic)
	cost := placementCost(c, nodeOf, flows, opt.Perturb)
	for sweep := 0; sweep < sweeps; sweep++ {
		improved := false
		for _, ij := range shuffledPairs(stages, stream) {
			i, j := ij[0], ij[1]
			swap := func() {
				devOf[i], devOf[j] = devOf[j], devOf[i]
				nodeOf[i], nodeOf[j] = nodeOf[j], nodeOf[i]
			}
			swap()
			if next := placementCost(c, nodeOf, flows, opt.Perturb); next < cost {
				cost = next
				improved = true
			} else {
				swap()
			}
		}
		if !improved {
			break
		}
	}
	return Placement{Strategy: StrategyGreedy, Devices: devOf}, nil
}

// Generate builds the named strategy's placement. Greedy uses the traffic
// matrix and search options; the others ignore them.
func Generate(strategy string, c Cluster, stages int, traffic [][]int64, opt SearchOptions) (Placement, error) {
	name, ok := StrategyByName(strategy)
	if !ok {
		return Placement{}, fmt.Errorf("cluster: unknown placement strategy %q (known: %s)",
			strategy, strings.Join(Strategies(), ", "))
	}
	switch name {
	case StrategyContiguous:
		return Contiguous(c, stages)
	case StrategyRoundRobin:
		return RoundRobin(c, stages)
	default:
		return Greedy(c, stages, traffic, opt)
	}
}

// Cost returns the modeled P2P communication cost of the placement under the
// traffic matrix: per stage pair, transfer time at the joining link's
// bandwidth plus its latency. It is the objective Greedy minimizes; lower is
// better.
func (p Placement) Cost(c Cluster, traffic [][]int64) float64 {
	if len(traffic) != len(p.Devices) {
		return 0
	}
	nodeOf := make([]int, len(p.Devices))
	for i, dev := range p.Devices {
		nodeOf[i] = c.NodeOf(dev)
	}
	return placementCost(c, nodeOf, trafficPairs(traffic), Perturb{})
}

// linkCost prices one stage pair's traffic on a link: serialization time at
// the link bandwidth plus one latency charge for the pair's existence.
func linkCost(l Link, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	cost := l.LatencySec
	if bps := l.BytesPerSec(); bps > 0 {
		cost += float64(bytes) / bps
	}
	return cost
}

// flow is one stage pair that exchanges traffic, with both directions'
// volume: links are full duplex, so a pair is priced on its total.
type flow struct {
	i, j  int
	bytes int64
}

// trafficPairs lists the stage pairs of a traffic matrix that exchange
// bytes, in (i, j) order. Pairs without traffic cost nothing, so the swap
// search never looks up their links.
func trafficPairs(traffic [][]int64) []flow {
	var out []flow
	for i := range traffic {
		for j := i + 1; j < len(traffic); j++ {
			if bytes := traffic[i][j] + traffic[j][i]; bytes > 0 {
				out = append(out, flow{i, j, bytes})
			}
		}
	}
	return out
}

// placementCost prices the flows of stages placed on the given nodes.
func placementCost(c Cluster, nodeOf []int, flows []flow, pt Perturb) float64 {
	total := 0.0
	for _, f := range flows {
		total += linkCost(pt.Apply(c.nodeLink(nodeOf[f.i], nodeOf[f.j])), f.bytes)
	}
	return total
}

// shuffledPairs returns all unordered stage pairs in a seeded random order
// (Fisher-Yates on the deterministic stream).
func shuffledPairs(stages int, stream *rng.Stream) [][2]int {
	pairs := make([][2]int, 0, stages*(stages-1)/2)
	for i := 0; i < stages; i++ {
		for j := i + 1; j < stages; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	for i := len(pairs) - 1; i > 0; i-- {
		j := stream.Intn(i + 1)
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
	return pairs
}

func checkCapacity(c Cluster, stages int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if stages <= 0 {
		return fmt.Errorf("cluster: need a positive stage count, got %d", stages)
	}
	if total := c.Devices(); stages > total {
		return fmt.Errorf("cluster: %d stages exceed the %d devices of %s", stages, total, c.Name)
	}
	return nil
}
