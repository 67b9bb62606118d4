package helixpipe

// This file bridges the public spec/session layer to internal/decode, the
// interactive-decoding (Helix Parallelism) cost model. A spec's decode
// section materializes into a DecodeSpec — the serving scenario plus the
// KVP x TPA axes to search — and Session.Decode runs the search on the
// session's hardware: the GPU and intra-node link resolve from the
// session's cluster (placement-resolved on topology sessions, flat NVLink
// otherwise), points stream through the session's event sink, and the
// report pins TTFT, the per-token latency distribution, tokens/sec, KV
// bytes per device and the collective breakdown for every sharding.

import (
	"fmt"
	"io"

	"repro/internal/costmodel"
	"repro/internal/decode"
	"repro/internal/obs"
)

// Decode search types (internal/decode).
type (
	// DecodeReport is the outcome of one decode search: the scenario, the
	// ranked best sharding, pruning accounting and every evaluated point.
	DecodeReport = decode.Report
	// DecodePoint is one evaluated sharding of a DecodeReport.
	DecodePoint = decode.Point
	// DecodeSharding is one (KVP, TPA) point of the attention lattice.
	DecodeSharding = decode.Sharding
	// DecodeScenario is the serving workload: model dims, head config,
	// context length, batch of sessions and GPU count.
	DecodeScenario = decode.Scenario
	// DecodeHeadConfig is the GQA/MLA attention-head geometry.
	DecodeHeadConfig = decode.HeadConfig
	// DecodeDist summarizes a per-token latency distribution.
	DecodeDist = decode.Dist
	// DecodeCommBreakdown splits a point's per-token collective time.
	DecodeCommBreakdown = decode.CommBreakdown
	// DecodeCostParams is the hardware pricing of a decode search.
	DecodeCostParams = decode.CostParams
)

// The objectives a decode search can rank shardings by.
const (
	// DecodeObjectiveLatencyPerToken minimizes mean seconds per generated
	// token (the interactive-serving default).
	DecodeObjectiveLatencyPerToken = decode.ObjectiveLatencyPerToken
	// DecodeObjectiveThroughput maximizes aggregate tokens per second.
	DecodeObjectiveThroughput = decode.ObjectiveThroughput
)

// DecodeShardings enumerates the full-utilization KVP x TPA lattice for n
// GPUs under a head config: every point with KVP*TPA = n and TPA <= K.
func DecodeShardings(n int, h DecodeHeadConfig) []DecodeSharding {
	return decode.Shardings(n, h)
}

// DecodeSpec is the materialized input of Session.Decode: the serving
// scenario and the sharding axes to search. Specs with a decode section
// produce one via Resolve (RunSet.Decode); construct one directly to
// script custom scenarios.
type DecodeSpec struct {
	// Scenario is the serving workload.
	Scenario DecodeScenario `json:"scenario"`
	// KVP and TPA pin explicit axes to cross; empty sweeps the
	// full-utilization lattice.
	KVP []int `json:"kvp,omitempty"`
	TPA []int `json:"tpa,omitempty"`
	// Objective ranks shardings (default latency_per_token).
	Objective string `json:"objective,omitempty"`
	// BudgetBytes is the per-device memory budget of the KV prune; 0 means
	// the GPU's capacity.
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
}

// decodeParams resolves the hardware pricing of a decode search from the
// session's cluster: on a topology session the first placed device's GPU
// generation and intra-node link (decode groups live inside one node), on
// a flat session the cluster's GPU and NVLink spec.
func (s *Session) decodeParams() DecodeCostParams {
	p := DecodeCostParams{GPU: s.cluster.GPU, Link: s.cluster.NVLink()}
	if s.resolvedTopo != nil {
		if g, ok := costmodel.GPUByName(s.resolvedTopo.GPUName(0)); ok {
			p.GPU = g
		}
		l := s.resolvedTopo.IntraLink(0)
		p.Link = costmodel.LinkSpec{Class: string(l.Class), GBps: l.GBps, LatencySec: l.LatencySec}
	}
	return p
}

// Decode searches the decoding scenario's KVP x TPA lattice on the
// session's hardware and returns the full report. Invalid lattice points
// and shardings whose KV cache plus weight shard exceed the memory budget
// are pruned before simulation; the rest are priced token by token against
// the growing cache. Deterministic: identical specs produce byte-identical
// reports. Each evaluated sharding is reported to the session's event sink
// as it completes.
func (s *Session) Decode(ds DecodeSpec) (*DecodeReport, error) {
	search, err := decode.NewSearch(decode.Spec{
		Scenario:    ds.Scenario,
		KVP:         append([]int(nil), ds.KVP...),
		TPA:         append([]int(nil), ds.TPA...),
		Objective:   ds.Objective,
		BudgetBytes: ds.BudgetBytes,
		Params:      s.decodeParams(),
		Sink:        s.events,
	})
	if err != nil {
		return nil, err
	}
	return search.Run()
}

// buildDecodeSpec materializes a normalized spec's decode section against
// the resolved model: the scenario inherits the model's dimensions, the
// head config comes from the section, and the budget converts to bytes.
func (s *ExperimentSpec) buildDecodeSpec(p *specParts) (*DecodeSpec, error) {
	d := s.Decode
	heads := DecodeHeadConfig{
		QueryHeads: p.model.Heads,
		KVHeads:    d.KVHeads,
		HeadDim:    p.model.HeadDim(),
		MLA:        d.MLA,
		LatentDim:  d.LatentDim,
	}
	ds := &DecodeSpec{
		Scenario: DecodeScenario{
			Model:        p.model.Name,
			Layers:       p.model.Layers,
			Hidden:       p.model.Hidden,
			Vocab:        p.model.Vocab,
			Heads:        heads,
			ContextLen:   d.ContextLen,
			DecodeTokens: d.DecodeTokens,
			Sessions:     d.Sessions,
			GPUs:         d.GPUs,
		},
		KVP:         append([]int(nil), d.KVP...),
		TPA:         append([]int(nil), d.TPA...),
		Objective:   d.Objective,
		BudgetBytes: int64(d.BudgetGB * float64(1<<30)),
	}
	// Validate the assembled scenario eagerly, like the tune grid: a decode
	// spec that would die inside Session.Decode must fail Resolve, or
	// -emit-spec would write an unrunnable spec.
	if err := ds.Scenario.Validate(); err != nil {
		return nil, fmt.Errorf("helixpipe: %w", err)
	}
	return ds, nil
}

// WriteDecodeReportJSON writes a decode report as indented JSON —
// deterministic, byte for byte, under identical specs.
func WriteDecodeReportJSON(w io.Writer, r *DecodeReport) error { return r.WriteJSON(w) }

// WriteDecodePerfetto writes a decode report as a Chrome/Perfetto
// trace-event JSON file: one process per sharding group (named after its
// KVP x TPA point), a "tokens" track with one slice per generated token at
// its cumulative offset, and a "comm" track summarizing the collective
// breakdown. Load the output in ui.perfetto.dev to compare shardings lane
// by lane.
func WriteDecodePerfetto(w io.Writer, r *DecodeReport) error {
	t := obs.NewTrace()
	for i := range r.Points {
		p := &r.Points[i]
		pid := i + 1
		t.ProcessName(pid, p.Sharding.String())
		t.ProcessSortIndex(pid, pid)
		t.ThreadName(pid, 0, "tokens")
		t.ThreadName(pid, 1, "comm")
		ts := 0.0
		for tok, sec := range p.TokenSeconds {
			t.Complete(pid, 0, fmt.Sprintf("token %d", tok), "decode", ts*1e6, sec*1e6, map[string]any{
				"context_len": r.Scenario.ContextLen + tok,
			})
			ts += sec
		}
		t.Complete(pid, 1, "collectives", "comm", 0, p.Comm.TotalSeconds*float64(r.Scenario.DecodeTokens)*1e6, map[string]any{
			"all_gather_seconds": p.Comm.AllGatherSeconds,
			"all_to_all_seconds": p.Comm.AllToAllSeconds,
			"all_reduce_seconds": p.Comm.AllReduceSeconds,
		})
	}
	return t.WriteJSON(w)
}
