package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
)

// fleetBaselineJobs is the stream size of the fleet baseline config.
const fleetBaselineJobs = 60

// fleetJobShape is the payload of a fleet-baseline job: the pipeline
// geometry the bench simulator prices on the carved sub-cluster.
type fleetJobShape struct {
	seqLen int
	stages int
}

// FleetBaseline records the fleet engine's policy comparison as one perf
// baseline config: a fixed 60-job Poisson stream of 3B pipelines on the
// DGX-A800x4 preset, run under every preset admission policy, with
// Throughput keyed by policy name in completed jobs per makespan hour. A
// >10% drop in any policy's jobs/hour fails the helix bench -diff gate, so
// scheduling regressions in the fleet engine leave the same trajectory
// trail as simulator regressions.
func FleetBaseline() (BaselineConfig, error) {
	c := cluster.DGXA800x4()
	jobs := fleetBaselineJobs
	stream := rng.New(7)
	arrivals := fleet.PoissonArrivals(stream.Split(1), jobs, 600.0/3600)
	draws := stream.Split(2)
	shapes := []fleetJobShape{
		{seqLen: 8192, stages: 4},
		{seqLen: 16384, stages: 8},
	}
	fjobs := make([]fleet.Job, jobs)
	for i := range fjobs {
		shape := shapes[draws.Intn(len(shapes))]
		fjobs[i] = fleet.Job{
			ID:         fmt.Sprintf("job%03d", i),
			Template:   fmt.Sprintf("3B-seq%d-pp%d", shape.seqLen, shape.stages),
			ArrivalSec: arrivals[i],
			Demand:     shape.stages,
			Iterations: 50,
			Payload:    shape,
		}
	}
	bc := BaselineConfig{
		Name:               fmt.Sprintf("fleet-3B-%s-%djobs", c.Name, jobs),
		Fleet:              true,
		TokensPerIteration: int64(shapes[0].seqLen) * int64(2*shapes[0].stages),
		Throughput:         map[string]float64{},
	}
	simr := &fleetBenchSimulator{cache: map[string]fleet.JobRun{}}
	for _, name := range fleet.Policies() {
		policy, ok := fleet.PolicyByName(name)
		if !ok {
			return bc, fmt.Errorf("fleet baseline: unknown policy %q", name)
		}
		report, err := fleet.Run(c, fjobs, simr, fleet.Options{Policy: policy})
		if err != nil {
			return bc, fmt.Errorf("fleet baseline %s: %w", name, err)
		}
		bc.Throughput[name] = report.ThroughputJobsPerHour
	}
	return bc, nil
}

// fleetBenchSimulator prices fleet-baseline jobs with the real discrete-event
// simulator: the HelixPipe plan for the job's geometry, placed contiguously
// on the carved sub-cluster and built on books placed there, run under the
// carve's topology. Results are memoized per (shape, carve signature) — the
// same keying as the public spec→Report cache, scoped to the bench.
type fleetBenchSimulator struct {
	cache map[string]fleet.JobRun
}

func (f *fleetBenchSimulator) Simulate(job fleet.Job, sub cluster.Cluster) (fleet.JobRun, error) {
	shape, ok := job.Payload.(fleetJobShape)
	if !ok {
		return fleet.JobRun{}, fmt.Errorf("fleet baseline job %s has no shape payload", job.ID)
	}
	key := fmt.Sprintf("seq=%d/pp=%d/%s", shape.seqLen, shape.stages, fleet.Signature(sub))
	if run, ok := f.cache[key]; ok {
		run.CacheHit = true
		return run, nil
	}
	placement, err := cluster.Contiguous(sub, shape.stages)
	if err != nil {
		return fleet.JobRun{}, err
	}
	topo, err := cluster.Resolve(sub, placement, cluster.Perturb{})
	if err != nil {
		return fleet.JobRun{}, err
	}
	s := NewScenario(model.Model3B(), costmodel.A800Cluster(), shape.seqLen, shape.stages)
	plan, err := s.BuildPlan(sched.MethodHelix, topo)
	if err != nil {
		return fleet.JobRun{}, err
	}
	res, err := sim.Run(plan, sim.Options{SMPenalty: s.Cluster.CommSMPenalty, Topology: topo})
	if err != nil {
		return fleet.JobRun{}, err
	}
	run := fleet.JobRun{
		IterationSeconds: res.IterationSeconds,
		Placement:        placement,
		LinkTraffic:      append([]sim.LinkClassStats(nil), res.LinkClasses...),
	}
	f.cache[key] = run
	return run, nil
}
