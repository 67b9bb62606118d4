package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

// BaselineConfig is one configuration of the performance baseline: the paper
// configs plus one variable-length workload, each simulated under every
// Figure 8 method.
type BaselineConfig struct {
	// Name identifies the configuration ("7B-H20-seq131072-pp8", ...).
	Name string `json:"name"`
	// VariableLength marks the mixed-length workload config.
	VariableLength bool `json:"variable_length,omitempty"`
	// Fleet marks the fleet-scale config, whose Throughput is keyed by
	// admission policy in completed jobs per makespan hour, not by method in
	// tokens/s.
	Fleet bool `json:"fleet,omitempty"`
	// Sweep marks the large-sweep config, whose Throughput is the wall-clock
	// cells/s of the whole build+simulate grid (SweepCellsPerSecond key).
	Sweep bool `json:"sweep,omitempty"`
	// Threshold overrides the diff gate's regression threshold for this
	// config; 0 keeps the gate's global one. Wall-clock configs pin a looser
	// threshold than simulated-throughput ones.
	Threshold float64 `json:"threshold,omitempty"`
	// TokensPerIteration is the config's iteration token count.
	TokensPerIteration int64 `json:"tokens_per_iteration"`
	// Throughput maps method name to simulated tokens/s (policy name to
	// jobs/hour on the fleet config).
	Throughput map[string]float64 `json:"throughput"`
}

// Baseline simulates the performance baseline: tokens/s per method for the
// two paper headline configs and one variable-length bimodal config, plus
// the fleet-scale policy comparison (jobs/hour per admission policy). CI
// uploads the result as BENCH_baseline.json so future changes have a
// recorded perf trajectory to diff against.
func Baseline() ([]BaselineConfig, error) {
	type cfg struct {
		name    string
		model   model.Config
		cluster costmodel.ClusterSpec
		seqLen  int
		stages  int
		batch   model.BatchSpec // empty = uniform at seqLen
	}
	// The bimodal workload keeps m = 2p (8 short + 8 full-length micro
	// batches) so the helix FILO schedules build on it too.
	varlen := model.BatchSpec{}
	for i := 0; i < 8; i++ {
		varlen.Shapes = append(varlen.Shapes, model.Shape{B: 1, S: 32768})
	}
	for i := 0; i < 8; i++ {
		varlen.Shapes = append(varlen.Shapes, model.Shape{B: 1, S: 131072})
	}
	configs := []cfg{
		{name: "7B-H20-seq131072-pp8", model: model.Model7B(), cluster: costmodel.H20Cluster(),
			seqLen: 131072, stages: 8},
		{name: "3B-A800-seq65536-pp4", model: model.Model3B(), cluster: costmodel.A800Cluster(),
			seqLen: 65536, stages: 4},
		{name: "7B-H20-varlen-bimodal-pp8", model: model.Model7B(), cluster: costmodel.H20Cluster(),
			seqLen: 131072, stages: 8, batch: varlen},
	}

	var out []BaselineConfig
	for _, c := range configs {
		s := NewScenario(c.model, c.cluster, c.seqLen, c.stages)
		scfg := sched.Config{Stages: c.stages, MicroBatches: s.MicroBatches, Layers: c.model.Layers}
		costs := sched.NewCosts(s.Workload(), c.batch, nil)
		tokens := s.TokensPerIteration()
		if len(c.batch.Shapes) > 0 {
			scfg.MicroBatches = c.batch.MicroBatches()
			scfg.Batch = c.batch
			tokens = c.batch.TotalTokens()
		}
		bc := BaselineConfig{
			Name:               c.name,
			VariableLength:     len(c.batch.Shapes) > 0,
			TokensPerIteration: tokens,
			Throughput:         map[string]float64{},
		}
		for _, method := range Figure8Methods {
			plan, err := sched.Build(method, scfg, costs,
				sched.BuildParams{MemoryBudget: s.MemoryBudget()})
			if err != nil {
				return nil, fmt.Errorf("baseline %s/%s: %w", c.name, method, err)
			}
			res, err := sim.Run(plan, sim.Options{SMPenalty: c.cluster.CommSMPenalty})
			if err != nil {
				return nil, fmt.Errorf("baseline %s/%s: %w", c.name, method, err)
			}
			bc.Throughput[string(method)] = res.Throughput(tokens)
		}
		out = append(out, bc)
	}
	fc, err := FleetBaseline()
	if err != nil {
		return nil, err
	}
	out = append(out, fc)
	sc, err := SweepBaseline()
	if err != nil {
		return nil, err
	}
	return append(out, sc), nil
}

// WriteBaselineJSON writes the baseline as indented JSON.
func WriteBaselineJSON(w io.Writer, configs []BaselineConfig) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(configs)
}
