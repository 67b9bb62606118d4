package sched

// Every message volume is a function of the micro batch's shape, and every
// sender and receiver follows from the partition, so a method's traffic
// matrix needs no schedule. The functions here return it in closed form for
// the layer-wise methods; internal/core registers HelixPipe's.

// NewTrafficMatrix returns a zeroed stages×stages traffic matrix backed by
// one allocation.
func NewTrafficMatrix(stages int) [][]int64 {
	cells := make([]int64, stages*stages)
	m := make([][]int64, stages)
	for s := range m {
		m[s] = cells[s*stages : (s+1)*stages : (s+1)*stages]
	}
	return m
}

// layerwiseTraffic is the traffic matrix of GPipe, 1F1B, ZB1P, ZB2P and
// AdaPipe: the chain over the physical stages. AdaPipe's partition moves
// layers between stages but not the boundaries' count or volume.
func layerwiseTraffic(cfg Config, costs Costs, _ BuildParams) ([][]int64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return chainTraffic(cfg, costs, cfg.Stages), nil
}

// chainTraffic is the traffic of a layer-wise pipeline over v virtual
// stages, virtual stage vs running on physical stage vs mod p. Every micro
// batch crosses each of the v-1 boundaries forward, and its gradient crosses
// back; each message is one boundary activation priced on the sender's book,
// as emitFStep and emitBStep price it.
func chainTraffic(cfg Config, costs Costs, v int) [][]int64 {
	p := cfg.Stages
	m := NewTrafficMatrix(p)
	for vs := 0; vs+1 < v; vs++ {
		lo, hi := vs%p, (vs+1)%p
		for mb := 0; mb < cfg.MicroBatches; mb++ {
			m[lo][hi] += costs.StageMB(lo, mb).BoundBytes[BoundAct]
			m[hi][lo] += costs.StageMB(hi, mb).BoundBytes[BoundAct]
		}
	}
	return m
}
