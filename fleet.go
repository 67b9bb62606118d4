package helixpipe

// This file bridges the public spec/session layer to internal/fleet, the
// shared-cluster job-stream simulator. A spec's fleet section materializes
// into a FleetSpec — concrete jobs with arrival times, priorities and
// single-method experiment specs as payloads — and Session.Fleet runs the
// stream on the session's cluster topology: the fleet engine carves device
// sets under the admission policy, and each carved job prices its pipeline
// through the real simulator behind the spec→Report cache, so repeated job
// shapes never re-simulate.

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Fleet simulator types (internal/fleet).
type (
	// FleetReport is the outcome of one fleet run: queue wait and JCT
	// distributions, makespan, utilization, fragmentation, per-link-class
	// traffic, and a per-job record list.
	FleetReport = fleet.Report
	// FleetPolicy is an admission/placement policy (order, carve, backfill,
	// preemption).
	FleetPolicy = fleet.Policy
	// FleetJobRecord is one job's outcome inside a FleetReport.
	FleetJobRecord = fleet.JobRecord
	// FleetDistStats summarizes a fleet duration distribution.
	FleetDistStats = fleet.Stats
	// FleetLinkTraffic is one link class's share of a fleet's communication.
	FleetLinkTraffic = fleet.LinkClassTraffic
	// FleetTraceEntry is one job of a replayed arrival trace.
	FleetTraceEntry = fleet.TraceEntry
)

// The preset fleet policies.
const (
	FleetPolicyFIFO     = fleet.PolicyFIFO
	FleetPolicyBestFit  = fleet.PolicyBestFit
	FleetPolicyWorstFit = fleet.PolicyWorstFit
	FleetPolicyBackfill = fleet.PolicyBackfill
	FleetPolicyPreempt  = fleet.PolicyPreempt
)

// The fleet arrival generators a spec's fleet section can name.
const (
	// FleetArrivalPoisson draws exponential inter-arrival gaps.
	FleetArrivalPoisson = "poisson"
	// FleetArrivalBursty lands jobs in Poisson-started bursts.
	FleetArrivalBursty = "bursty"
)

// FleetPolicyByName resolves a preset fleet policy case-insensitively and
// reports whether it exists.
func FleetPolicyByName(name string) (FleetPolicy, bool) { return fleet.PolicyByName(name) }

// FleetPolicyListing renders the preset policy table as helix fleet
// -policy help prints it.
func FleetPolicyListing() string {
	var b strings.Builder
	desc := map[string]string{
		FleetPolicyFIFO:     "arrival order, first-fit carve, head-of-line blocking",
		FleetPolicyBestFit:  "arrival order, best-fit carve (pack full nodes)",
		FleetPolicyWorstFit: "arrival order, worst-fit carve (spread across nodes)",
		FleetPolicyBackfill: "best fit + backfill past a blocked head",
		FleetPolicyPreempt:  "priority order + backfill + preemption with re-queue",
	}
	for _, name := range fleet.Policies() {
		fmt.Fprintf(&b, "  %-10s %s\n", name, desc[name])
	}
	return b.String()
}

// FleetJob is one materialized job of a FleetSpec: stream metadata plus the
// single-method experiment spec describing its pipeline. The job's device
// demand is its resolved spec's stage count — one device per pipeline stage.
type FleetJob struct {
	// ID identifies the job in the report ("job007").
	ID string `json:"id"`
	// Template names the spec-level template the job was drawn from.
	Template string `json:"template,omitempty"`
	// ArrivalSec is the job's arrival time on the fleet clock.
	ArrivalSec float64 `json:"arrival_sec"`
	// Priority orders preemptive admission; higher preempts lower.
	Priority int `json:"priority,omitempty"`
	// Iterations is the number of training iterations the job runs.
	Iterations int `json:"iterations"`
	// Spec describes the job's pipeline: a run-kind experiment spec naming
	// exactly one method. Its resolved stage count (8 when left at zero) is
	// the job's device demand; its cluster field is overridden by the
	// devices the fleet carves for it.
	Spec *ExperimentSpec `json:"spec"`
}

// FleetSpec is the materialized input of Session.Fleet: the job stream and
// the admission policy. Specs with a fleet section produce one via Resolve
// (RunSet.Fleet); construct one directly to script custom streams.
type FleetSpec struct {
	// Policy names the admission/placement policy (default "fifo").
	Policy string `json:"policy,omitempty"`
	// Jobs is the stream, in arrival order.
	Jobs []FleetJob `json:"jobs"`
	// Cache memoizes spec→Report simulations across jobs; nil uses a fresh
	// cache per run. Share one across runs to reuse results between policy
	// comparisons on the same stream.
	Cache *ReportCache `json:"-"`
	// Probe, when set, observes the fleet engine state after every processed
	// event (arrival or completion) — the hook live progress lines use.
	// Runtime plumbing, never serialized.
	Probe func(FleetProbeEvent) `json:"-"`
}

// FleetProbeEvent is the engine state snapshot handed to FleetSpec.Probe.
type FleetProbeEvent = fleet.ProbeEvent

// Fleet simulates a stream of training jobs sharing the session's cluster
// topology under an admission/placement policy and returns the fleet report.
// Each admitted job's carved devices become a sub-cluster; the job's spec is
// simulated on it through the spec→Report cache (repeated job shapes on
// equivalent carves simulate once), its placement searched by the spec's
// placement strategy. Every job spec resolves before the stream starts, so
// an unresolvable one fails the run naming its job. The run is
// deterministic: identical specs produce byte-identical reports.
func (s *Session) Fleet(fs FleetSpec) (*FleetReport, error) {
	if s.topo == nil {
		return nil, fmt.Errorf("helixpipe: Fleet requires a cluster topology (WithCluster)")
	}
	name := fs.Policy
	if name == "" {
		name = FleetPolicyFIFO
	}
	policy, ok := fleet.PolicyByName(name)
	if !ok {
		return nil, fmt.Errorf("helixpipe: unknown fleet policy %q; the policies are:\n%s",
			fs.Policy, FleetPolicyListing())
	}
	cache := fs.Cache
	if cache == nil {
		cache = NewReportCache()
		defer cache.release()
	}
	priced := &fleetSimulator{cache: cache, specs: map[*ExperimentSpec]*fleetJobSpec{}}
	jobs := make([]fleet.Job, len(fs.Jobs))
	for i := range fs.Jobs {
		fj := &fs.Jobs[i]
		if fj.Spec == nil {
			return nil, fmt.Errorf("helixpipe: fleet job %s has no spec", fj.ID)
		}
		if len(fj.Spec.Methods) != 1 {
			return nil, fmt.Errorf("helixpipe: fleet job %s must name exactly one method, got %v",
				fj.ID, fj.Spec.Methods)
		}
		js, err := priced.jobSpec(fj.Spec)
		if err != nil {
			return nil, fmt.Errorf("fleet: job %s: %w", fj.ID, err)
		}
		jobs[i] = fleet.Job{
			ID:         fj.ID,
			Template:   fj.Template,
			ArrivalSec: fj.ArrivalSec,
			Priority:   fj.Priority,
			Demand:     js.base.Stages(),
			Iterations: fj.Iterations,
			Payload:    js,
		}
	}
	probe := fleetProbe(float64(s.topo.Devices()), fs.Probe)
	return fleet.Run(*s.topo, jobs, priced, fleet.Options{Policy: policy, Probe: probe})
}

// fleetProbe mirrors the engine state into the default obs registry on every
// event — queue depth, running jobs, device utilization, and the cumulative
// preemption count — and then forwards to the caller's probe, if any.
func fleetProbe(devices float64, next func(FleetProbeEvent)) func(fleet.ProbeEvent) {
	var (
		queueG   = obs.Default().Gauge("helix_fleet_queue_depth")
		runningG = obs.Default().Gauge("helix_fleet_running_jobs")
		utilG    = obs.Default().Gauge("helix_fleet_utilization")
		preemptC = obs.Default().Counter("helix_fleet_preemptions_total")
	)
	seen := 0
	return func(p fleet.ProbeEvent) {
		queueG.Set(float64(p.Queued))
		runningG.Set(float64(p.Running))
		if devices > 0 {
			utilG.Set(float64(p.AllocatedDevices) / devices)
		}
		if d := p.Preemptions - seen; d > 0 {
			preemptC.Add(int64(d))
			seen = p.Preemptions
		}
		if next != nil {
			next(p)
		}
	}
}

// fleetSimulator prices fleet jobs through the session/spec machinery: the
// job's spec resolves to a session, the carve replaces its topology, the
// spec's placement strategy searches the stage placement, and the sim engine
// runs one iteration — all behind the content-hashed report cache.
//
// Each distinct job spec (by pointer: every draw of a template shares one) is
// resolved once per run, and each (spec, carve signature) pair keyed once, so
// a start on a known pair resolves, marshals and hashes nothing. The keys
// equal ReportCache.Key(spec, "carve="+fleet.Signature(sub)).
type fleetSimulator struct {
	cache *ReportCache
	specs map[*ExperimentSpec]*fleetJobSpec
}

// fleetJobSpec is one job spec of a fleet run, resolved: the content its
// cache keys hash, the method, base session and RunSet its misses run on,
// and the key of each carve signature seen so far. It is the payload of
// every job drawn with the spec.
type fleetJobSpec struct {
	content []byte
	method  Method
	base    *Session
	rs      RunSet
	keys    map[string]string
}

// jobSpec returns the spec's resolved entry, resolving it on first use. An
// unresolvable spec fails with Key's error.
func (f *fleetSimulator) jobSpec(spec *ExperimentSpec) (*fleetJobSpec, error) {
	if js, ok := f.specs[spec]; ok {
		return js, nil
	}
	// Resolved's normalize-then-Resolve, keeping the session Resolve builds.
	n, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	base, rs, err := n.Resolve()
	if err != nil {
		return nil, err
	}
	content, err := specContent(n)
	if err != nil {
		return nil, err
	}
	js := &fleetJobSpec{content: content, method: Method(spec.Methods[0]), base: base, rs: rs,
		keys: map[string]string{}}
	f.specs[spec] = js
	return js, nil
}

func (f *fleetSimulator) Simulate(job fleet.Job, sub cluster.Cluster) (fleet.JobRun, error) {
	js := job.Payload.(*fleetJobSpec)
	sig := fleet.Signature(sub)
	key, ok := js.keys[sig]
	if !ok {
		key = contentKey(js.content, "carve="+sig)
		js.keys[sig] = key
	}
	report, hit, err := f.cache.Do(key, func() (*Report, error) {
		return simulateOnCarve(js.base, js.rs, js.method, sub)
	})
	if err != nil {
		return fleet.JobRun{}, err
	}
	if report.Sim == nil {
		return fleet.JobRun{}, fmt.Errorf("helixpipe: fleet job %s produced no sim metrics", job.ID)
	}
	return fleet.JobRun{
		IterationSeconds: report.Sim.IterationSeconds,
		Placement:        cluster.Placement{Devices: append([]int(nil), report.Placement...)},
		LinkTraffic:      append([]sim.LinkClassStats(nil), report.Sim.LinkTraffic...),
		CacheHit:         hit,
	}, nil
}

// simulateOnCarve runs a job's method on a carved sub-cluster: swap the
// resolved base session's topology for the carve, then place and run the
// method as Execute runs a cell.
func simulateOnCarve(base *Session, rs RunSet, method Method, sub cluster.Cluster) (*Report, error) {
	cell, err := base.With(WithCluster(sub))
	if err != nil {
		return nil, err
	}
	return cell.runCell(method, rs.Engine, rs.Seed, rs.Placement, rs.PlacementSeed)
}

// buildFleetSpec materializes a normalized spec's fleet section into the
// concrete job stream: arrival times from the named generator (or a replayed
// trace file), templates drawn by weight, and one resolved single-method job
// spec per template, shared by every draw so the report cache keys align.
func (s *ExperimentSpec) buildFleetSpec(p *specParts) (*FleetSpec, error) {
	f := s.Fleet
	if p.topo == nil {
		return nil, fmt.Errorf("helixpipe: a fleet run requires a topology cluster (e.g. DGX-A800x4), not the flat %s", s.Cluster)
	}
	specs := map[string]*ExperimentSpec{}
	templates := map[string]SpecFleetTemplate{}
	for _, t := range f.Templates {
		js, err := s.templateSpec(t)
		if err != nil {
			return nil, fmt.Errorf("helixpipe: fleet template %q: %w", t.Name, err)
		}
		specs[t.Name] = js
		templates[t.Name] = t
	}
	fs := &FleetSpec{Policy: f.Policy}
	if f.Trace != "" {
		entries, err := fleet.LoadTraceFile(f.Trace)
		if err != nil {
			return nil, fmt.Errorf("helixpipe: %w", err)
		}
		for i, e := range entries {
			t, ok := templates[e.Template]
			if !ok {
				return nil, fmt.Errorf("helixpipe: trace entry %d names unknown fleet template %q", i, e.Template)
			}
			job := newFleetJob(i, t, e.ArrivalSec, specs[t.Name])
			if e.Priority != 0 {
				job.Priority = e.Priority
			}
			if e.Iterations > 0 {
				job.Iterations = e.Iterations
			}
			fs.Jobs = append(fs.Jobs, job)
		}
		return fs, nil
	}
	stream := rng.New(f.Seed)
	arrivalStream, drawStream := stream.Split(1), stream.Split(2)
	rate := f.RatePerHour / 3600
	var arrivals []float64
	if f.Arrival == FleetArrivalBursty {
		arrivals = fleet.BurstyArrivals(arrivalStream, f.Jobs, f.BurstSize, rate)
	} else {
		arrivals = fleet.PoissonArrivals(arrivalStream, f.Jobs, rate)
	}
	total := 0.0
	for _, t := range f.Templates {
		total += t.Weight
	}
	for i, at := range arrivals {
		x := drawStream.Float64() * total
		t := f.Templates[len(f.Templates)-1]
		for _, cand := range f.Templates {
			if x < cand.Weight {
				t = cand
				break
			}
			x -= cand.Weight
		}
		fs.Jobs = append(fs.Jobs, newFleetJob(i, t, at, specs[t.Name]))
	}
	return fs, nil
}

func newFleetJob(i int, t SpecFleetTemplate, arrivalSec float64, spec *ExperimentSpec) FleetJob {
	return FleetJob{
		ID:         fmt.Sprintf("job%03d", i),
		Template:   t.Name,
		ArrivalSec: arrivalSec,
		Priority:   t.Priority,
		Iterations: t.Iterations,
		Spec:       spec,
	}
}

// templateSpec derives a template's job spec from the parent spec: the
// template's geometry overrides layered on, the fleet/sweep/tune/output
// sections stripped, resolved eagerly so an unbuildable template fails at
// Resolve time, not mid-stream.
func (s *ExperimentSpec) templateSpec(t SpecFleetTemplate) (*ExperimentSpec, error) {
	js := *s
	js.Fleet, js.Sweep, js.Tune, js.Output = nil, nil, nil, nil
	js.Trace = false
	js.Methods = []string{t.Method}
	js.Stages = t.Stages
	if t.SeqLen > 0 {
		// A pinned sequence length replaces an inherited workload: the
		// template wants a fixed shape.
		js.SeqLen = t.SeqLen
		js.Workload = nil
	}
	if t.MicroBatchSize > 0 {
		js.MicroBatchSize = t.MicroBatchSize
	}
	if t.MicroBatches > 0 {
		js.MicroBatches = t.MicroBatches
	}
	return js.Resolved()
}

// WriteFleetReportJSON writes a fleet report as indented JSON —
// deterministic, byte for byte, under identical specs.
func WriteFleetReportJSON(w io.Writer, r *FleetReport) error { return r.WriteJSON(w) }

// WriteFleetReportCSV writes a fleet report's per-job records as CSV.
func WriteFleetReportCSV(w io.Writer, r *FleetReport) error { return r.WriteCSV(w) }

// WriteFleetPerfetto writes a fleet report as a Chrome/Perfetto trace-event
// JSON file: one process per job (named after the job id and template), with
// a "queued" slice from arrival to admission and a "run" slice from admission
// to completion on the job's lifecycle track. Load the output in
// ui.perfetto.dev or chrome://tracing to see the whole stream at once.
func WriteFleetPerfetto(w io.Writer, r *FleetReport) error {
	t := obs.NewTrace()
	for i := range r.JobRecords {
		rec := &r.JobRecords[i]
		pid := i + 1
		name := rec.ID
		if rec.Template != "" {
			name += " " + rec.Template
		}
		t.ProcessName(pid, name)
		t.ProcessSortIndex(pid, pid)
		t.ThreadName(pid, 0, "lifecycle")
		if wait := rec.StartSec - rec.ArrivalSec; wait > 0 {
			t.Complete(pid, 0, "queued", "queued", rec.ArrivalSec*1e6, wait*1e6, map[string]any{
				"wait_sec": rec.WaitSec,
			})
		}
		t.Complete(pid, 0, "run", "run", rec.StartSec*1e6, (rec.EndSec-rec.StartSec)*1e6, map[string]any{
			"devices":       len(rec.Devices),
			"nodes":         rec.Nodes,
			"iteration_sec": rec.IterationSec,
			"iterations":    rec.Iterations,
			"preempted":     rec.Preempted,
			"cache_hit":     rec.CacheHit,
		})
	}
	return t.WriteJSON(w)
}
