package helixpipe

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"repro/internal/exec"
	"repro/internal/jsonw"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tune"
)

// Engine names appearing in Report.Engine.
const (
	// EngineSim is the discrete-event cluster simulator.
	EngineSim = "sim"
	// EngineNumeric is the goroutine-per-stage numeric runtime.
	EngineNumeric = "numeric"
)

// StageMetrics is one pipeline stage's share of a simulated iteration.
type StageMetrics struct {
	// Stage is the pipeline stage index.
	Stage int `json:"stage"`
	// BusySeconds is the compute-busy time.
	BusySeconds float64 `json:"busy_seconds"`
	// IdleSeconds is the bubble plus recv waiting.
	IdleSeconds float64 `json:"idle_seconds"`
	// WaitSeconds is the time blocked in recvs.
	WaitSeconds float64 `json:"wait_seconds"`
	// CommStallSeconds is the time the compute stream spent in blocking sends.
	CommStallSeconds float64 `json:"comm_stall_seconds"`
	// PeakStashBytes is the peak activation stash.
	PeakStashBytes int64 `json:"peak_stash_bytes"`
	// BytesSent is the outbound traffic.
	BytesSent int64 `json:"bytes_sent"`
}

// SimMetrics summarises a simulated iteration inside a Report.
type SimMetrics struct {
	// IterationSeconds is the makespan of one training iteration.
	IterationSeconds float64 `json:"iteration_seconds"`
	// TokensPerSecond is the training throughput (zero when the report has
	// no token geometry).
	TokensPerSecond float64 `json:"tokens_per_second,omitempty"`
	// BubbleSeconds is the mean per-stage idle time.
	BubbleSeconds float64 `json:"bubble_seconds"`
	// BubbleFraction is BubbleSeconds over IterationSeconds.
	BubbleFraction float64 `json:"bubble_fraction"`
	// MaxPeakStashBytes is the largest per-stage stash peak.
	MaxPeakStashBytes int64 `json:"max_peak_stash_bytes"`
	// LinkTraffic breaks the iteration's communication down per link class
	// (nvlink, ib, ...), sorted by class name. Absent on flat-NIC runs.
	LinkTraffic []LinkTraffic `json:"link_traffic,omitempty"`
	// PerStage holds the per-stage breakdown.
	PerStage []StageMetrics `json:"per_stage"`
}

// NumericMetrics summarises a numerically executed iteration inside a
// Report. Gradients are not serialized; use Report.NumericResult for them.
type NumericMetrics struct {
	// Loss is the mean micro-batch loss.
	Loss float64 `json:"loss"`
}

// Report is the unified, serializable result of running one method on one
// engine. It marshals to stable JSON, renders CSV rows, and — when the
// simulation was traced — the ASCII and SVG timeline renderers hang off it.
type Report struct {
	// Method is the pipeline parallelism that ran.
	Method Method `json:"method"`
	// Engine is the engine that ran it (EngineSim or EngineNumeric).
	Engine string `json:"engine"`
	// Model and Cluster label the session configuration (empty on reports
	// from engines detached from a session).
	Model   string `json:"model,omitempty"`
	Cluster string `json:"cluster,omitempty"`
	// Topology names the cluster topology of a topology-aware run and
	// Placement lists the device each stage was placed on (absent on
	// flat-NIC runs).
	Topology  string `json:"topology,omitempty"`
	Placement []int  `json:"placement,omitempty"`
	// PlacementStrategy names the generator of the placement ("contiguous",
	// "roundrobin", "greedy", "custom").
	PlacementStrategy string `json:"placement_strategy,omitempty"`
	// SeqLen and MicroBatchSize are the micro-batch shape.
	SeqLen         int `json:"seq_len,omitempty"`
	MicroBatchSize int `json:"micro_batch_size,omitempty"`
	// Stages, MicroBatches and Layers are the plan geometry.
	Stages       int `json:"stages"`
	MicroBatches int `json:"micro_batches"`
	Layers       int `json:"layers"`
	// TokensPerIteration is the token count one iteration processes.
	TokensPerIteration int64 `json:"tokens_per_iteration,omitempty"`
	// MicroBatchTokens lists the per-micro-batch token counts of a
	// variable-length workload, in execution order (absent on fixed-shape
	// runs, where every micro batch carries SeqLen*MicroBatchSize tokens).
	MicroBatchTokens []int64 `json:"micro_batch_tokens,omitempty"`
	// SeqLenHistogram summarises the micro-batch sequence-length distribution
	// of a variable-length workload (absent on fixed-shape runs).
	SeqLenHistogram []LengthBucket `json:"seq_len_histogram,omitempty"`
	// RealTokens is the unpadded token count behind a packed variable-length
	// workload, and PadFraction the share of TokensPerIteration that is
	// padding (absent when the workload was not packed from documents).
	RealTokens  int64   `json:"real_tokens,omitempty"`
	PadFraction float64 `json:"pad_fraction,omitempty"`
	// Sim holds the simulator metrics (sim engine only).
	Sim *SimMetrics `json:"sim,omitempty"`
	// Numeric holds the numeric metrics (numeric engine only).
	Numeric *NumericMetrics `json:"numeric,omitempty"`
	// Telemetry is the run's provenance (its wall clock). It is stamped
	// only on observed sessions (WithEventSink), so default runs —
	// including the golden corpus and the byte-identity CI diffs —
	// marshal without it and stay byte-stable; StripTelemetry removes it
	// before any digest comparison that mixes both.
	Telemetry *ReportTelemetry `json:"telemetry,omitempty"`

	// Unserialized raw results, retained for timelines and gradient access.
	simResult     *sim.Result
	numericResult *exec.Result
}

// ReportTelemetry is a report's run provenance. Its wall clock varies run
// to run by construction — comparisons that expect byte-identical reports
// must strip the block first (StripTelemetry).
type ReportTelemetry struct {
	// WallSeconds is the cell's wall clock: its placement search, plan build
	// and engine run.
	WallSeconds float64 `json:"wall_seconds"`
}

// StripTelemetry removes the telemetry block from every report, in place.
// Golden-corpus digests and observed-vs-unobserved byte comparisons call it
// so provenance never perturbs content equality.
func StripTelemetry(reports []*Report) {
	for _, r := range reports {
		if r != nil {
			r.Telemetry = nil
		}
	}
}

// reportMeta is the session-derived context an engine stamps onto reports.
type reportMeta struct {
	model, cluster     string
	topology, strategy string
	seqLen, microBatch int
	tokensPerIteration int64
}

func (s *Session) reportMeta() reportMeta {
	m := reportMeta{
		model:              s.model.Name,
		cluster:            s.cluster.Name,
		seqLen:             s.SeqLen(),
		microBatch:         s.MicroBatchSize(),
		tokensPerIteration: s.TokensPerIteration(),
	}
	if topo, ok := s.Topology(); ok {
		m.topology = topo.Name
	}
	if place, ok := s.Placement(); ok {
		m.strategy = place.Strategy
		if m.strategy == "" {
			m.strategy = "custom"
		}
	}
	return m
}

func newReport(plan *sched.Plan, engine string, meta reportMeta) *Report {
	r := &Report{
		Method:             plan.Method,
		Engine:             engine,
		Model:              meta.model,
		Cluster:            meta.cluster,
		SeqLen:             meta.seqLen,
		MicroBatchSize:     meta.microBatch,
		Stages:             plan.Stages,
		MicroBatches:       plan.MicroBatches,
		Layers:             plan.Layers,
		TokensPerIteration: meta.tokensPerIteration,
	}
	r.Topology = meta.topology
	r.PlacementStrategy = meta.strategy
	// Placed plans carry their device mapping; read it off the plan so
	// detached engines report it too.
	if len(plan.Placement) > 0 {
		r.Placement = append([]int(nil), plan.Placement...)
	}
	// Variable-length plans carry their batch spec; read the per-micro-batch
	// geometry off the plan so detached engines report it too.
	if len(plan.Batch.Shapes) > 0 {
		r.MicroBatchTokens = plan.Batch.TokensPerMB()
		r.SeqLenHistogram = plan.Batch.Histogram(8)
		r.RealTokens = plan.Batch.RealTokens
		r.PadFraction = plan.Batch.PadFraction()
		if r.TokensPerIteration == 0 {
			r.TokensPerIteration = plan.Batch.TotalTokens()
		}
		if r.SeqLen == 0 {
			r.SeqLen = plan.Batch.MaxSeqLen()
		}
	}
	return r
}

func newSimReport(plan *sched.Plan, res *sim.Result, meta reportMeta) *Report {
	r := newReport(plan, EngineSim, meta)
	r.simResult = res
	m := &SimMetrics{
		IterationSeconds:  res.IterationSeconds,
		BubbleSeconds:     res.BubbleSeconds(),
		MaxPeakStashBytes: res.MaxPeakStashBytes(),
		LinkTraffic:       append([]LinkTraffic(nil), res.LinkClasses...),
	}
	if res.IterationSeconds > 0 {
		m.BubbleFraction = m.BubbleSeconds / res.IterationSeconds
		if r.TokensPerIteration > 0 {
			m.TokensPerSecond = res.Throughput(r.TokensPerIteration)
		}
	}
	for st := 0; st < res.Stages; st++ {
		m.PerStage = append(m.PerStage, StageMetrics{
			Stage:            st,
			BusySeconds:      res.BusySeconds[st],
			IdleSeconds:      res.IdleSeconds[st],
			WaitSeconds:      res.WaitSeconds[st],
			CommStallSeconds: res.CommStallSeconds[st],
			PeakStashBytes:   res.PeakStashBytes[st],
			BytesSent:        res.BytesSent[st],
		})
	}
	r.Sim = m
	return r
}

func newNumericReport(plan *sched.Plan, res *exec.Result, meta reportMeta) *Report {
	r := newReport(plan, EngineNumeric, meta)
	r.numericResult = res
	r.Numeric = &NumericMetrics{Loss: res.Loss}
	return r
}

// SimResult returns the raw simulator result backing the report, or nil for
// numeric reports and reports decoded from JSON.
func (r *Report) SimResult() *SimResult { return r.simResult }

// NumericResult returns the raw numeric result (loss and full gradients)
// backing the report, or nil for sim reports and decoded reports.
func (r *Report) NumericResult() *NumericResult { return r.numericResult }

// TimelineASCII renders the traced simulation as text lanes, one per stage.
// It returns an empty string when the report has no traced sim result (run
// the session with WithTrace, or set SimOptions.Trace).
func (r *Report) TimelineASCII(width int) string {
	if r.simResult == nil || len(r.simResult.Spans) == 0 {
		return ""
	}
	return trace.ASCII(r.simResult, width)
}

// TimelineSVG renders the traced simulation as an SVG document, or an empty
// string when the report has no traced sim result.
func (r *Report) TimelineSVG(width int) string {
	if r.simResult == nil || len(r.simResult.Spans) == 0 {
		return ""
	}
	return trace.SVG(r.simResult, width)
}

// perfettoLabel names a report's process lane in a Perfetto trace.
func (r *Report) perfettoLabel() string {
	label := fmt.Sprintf("%s seq=%d p=%d", r.Method, r.SeqLen, r.Stages)
	if r.MicroBatchSize > 1 {
		label += fmt.Sprintf(" b=%d", r.MicroBatchSize)
	}
	return label
}

// WritePerfettoTrace writes the traced reports as one Chrome/Perfetto
// trace-event JSON document, loadable in ui.perfetto.dev: one process per
// report (named by method and geometry), one thread lane per pipeline
// stage, and flow events linking each send to its receive across lanes.
// Reports without traced sim results are skipped; when none of the reports
// carries spans an error is returned instead of an empty trace (run with
// trace enabled, e.g. spec `trace` or Output.Perfetto).
func WritePerfettoTrace(w io.Writer, reports []*Report) error {
	t := obs.NewTrace()
	pid := 0
	for _, r := range reports {
		if r == nil || r.simResult == nil || len(r.simResult.Spans) == 0 {
			continue
		}
		pid++
		trace.Perfetto(t, r.simResult, pid, r.perfettoLabel())
	}
	if pid == 0 {
		return fmt.Errorf("helixpipe: no traced sim reports to export as a Perfetto trace (enable tracing)")
	}
	return t.WriteJSON(w)
}

// ReportCSVHeader returns the column names of Report.CSVRow.
func ReportCSVHeader() []string {
	return []string{
		"method", "engine", "model", "cluster",
		"topology", "placement_strategy", "placement",
		"seq_len", "micro_batch_size", "stages", "micro_batches", "layers",
		"tokens_per_iteration", "pad_fraction", "mb_tokens", "seq_len_hist",
		"iteration_seconds", "tokens_per_second", "bubble_fraction",
		"max_peak_stash_bytes", "link_traffic", "loss",
		"wall_seconds",
	}
}

// CSVRow renders the report as one CSV row matching ReportCSVHeader.
// Engine-specific columns are empty when they do not apply; the
// variable-length columns (pad_fraction, mb_tokens, seq_len_hist) are empty
// on fixed-shape runs, the topology columns (topology, placement_strategy,
// placement, link_traffic) on flat-NIC runs.
func (r *Report) CSVRow() []string {
	iter, tput, bubble, stash, loss := "", "", "", "", ""
	var linkTraffic []string
	if r.Sim != nil {
		iter = fmt.Sprintf("%g", r.Sim.IterationSeconds)
		tput = fmt.Sprintf("%g", r.Sim.TokensPerSecond)
		bubble = fmt.Sprintf("%g", r.Sim.BubbleFraction)
		stash = fmt.Sprintf("%d", r.Sim.MaxPeakStashBytes)
		for _, lt := range r.Sim.LinkTraffic {
			linkTraffic = append(linkTraffic, fmt.Sprintf("%s:%d", lt.Class, lt.Bytes))
		}
	}
	if r.Numeric != nil {
		loss = fmt.Sprintf("%g", r.Numeric.Loss)
	}
	var placement []string
	for _, d := range r.Placement {
		placement = append(placement, fmt.Sprintf("%d", d))
	}
	padFraction := ""
	if r.PadFraction > 0 {
		padFraction = fmt.Sprintf("%g", r.PadFraction)
	}
	var mbTokens []string
	for _, t := range r.MicroBatchTokens {
		mbTokens = append(mbTokens, fmt.Sprintf("%d", t))
	}
	var hist []string
	for _, b := range r.SeqLenHistogram {
		hist = append(hist, fmt.Sprintf("%d-%d:%d", b.MinSeqLen, b.MaxSeqLen, b.MicroBatches))
	}
	// The telemetry column is empty on unobserved runs, so default CSV
	// output stays deterministic.
	wall := ""
	if r.Telemetry != nil {
		wall = fmt.Sprintf("%g", r.Telemetry.WallSeconds)
	}
	return []string{
		string(r.Method), r.Engine, r.Model, r.Cluster,
		r.Topology, r.PlacementStrategy, strings.Join(placement, ";"),
		fmt.Sprintf("%d", r.SeqLen), fmt.Sprintf("%d", r.MicroBatchSize),
		fmt.Sprintf("%d", r.Stages), fmt.Sprintf("%d", r.MicroBatches),
		fmt.Sprintf("%d", r.Layers),
		fmt.Sprintf("%d", r.TokensPerIteration), padFraction,
		strings.Join(mbTokens, ";"), strings.Join(hist, ";"),
		iter, tput, bubble, stash, strings.Join(linkTraffic, ";"), loss,
		wall,
	}
}

// ReportCSVWriter streams reports as CSV rows: the header goes out when the
// writer is built, each Write flushes one row, so a sink tailing the file
// sees rows as sweep cells complete rather than after the whole run. Rows
// match ReportCSVHeader.
type ReportCSVWriter struct {
	cw *csv.Writer
}

// NewReportCSVWriter writes the CSV header and returns the row writer.
func NewReportCSVWriter(w io.Writer) (*ReportCSVWriter, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(ReportCSVHeader()); err != nil {
		return nil, err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return nil, err
	}
	return &ReportCSVWriter{cw: cw}, nil
}

// Write appends one report row and flushes it through to the sink.
func (w *ReportCSVWriter) Write(r *Report) error {
	if err := w.cw.Write(r.CSVRow()); err != nil {
		return err
	}
	w.cw.Flush()
	return w.cw.Error()
}

// WriteReportsCSV writes a header plus one row per report.
func WriteReportsCSV(w io.Writer, reports []*Report) error {
	sw, err := NewReportCSVWriter(w)
	if err != nil {
		return err
	}
	for _, r := range reports {
		if err := sw.Write(r); err != nil {
			return err
		}
	}
	return nil
}

// WriteReportsJSON writes the reports as an indented JSON array.
func WriteReportsJSON(w io.Writer, reports []*Report) error {
	return jsonw.Write(w, reports)
}

// WriteTuneResultJSON writes an autotuner result as indented JSON: the
// search accounting (grid size, "why pruned" count per constraint, memoized
// cost-model evaluations), the best pick per sequence length, the Pareto
// frontier, and every evaluated point.
func WriteTuneResultJSON(w io.Writer, r *TuneResult) error {
	return jsonw.Write(w, r)
}

// WriteTuneResultCSV writes every evaluated point of an autotuner result as
// CSV: a header row, then one row per configuration.
func WriteTuneResultCSV(w io.Writer, r *TuneResult) error {
	return tune.WriteCSV(w, r.Points)
}

// WriteTablesJSON writes experiment tables as an indented JSON array.
func WriteTablesJSON(w io.Writer, tables []*ExperimentTable) error {
	return jsonw.Write(w, tables)
}

// MethodInfo describes one registered pipeline parallelism.
type MethodInfo struct {
	// Name is the canonical method name.
	Name Method
	// Description is a one-line summary.
	Description string
}

// MethodInfos lists every registered method with its description, baselines
// first.
func MethodInfos() []MethodInfo {
	regs := sched.Registrations()
	out := make([]MethodInfo, len(regs))
	for i, r := range regs {
		out[i] = MethodInfo{Name: r.Name, Description: r.Description}
	}
	return out
}

// LookupMethod resolves a method name case-insensitively against the
// registry and reports whether it is registered.
func LookupMethod(name string) (Method, bool) {
	r, ok := sched.Lookup(name)
	if !ok {
		return "", false
	}
	return r.Name, true
}

// MethodListing renders the registry's method table — one line per method
// with its description — as the helix command prints it on
// "-method help" or an unknown name.
func MethodListing() string {
	var b strings.Builder
	for _, info := range MethodInfos() {
		fmt.Fprintf(&b, "  %-22s %s\n", info.Name, info.Description)
	}
	return b.String()
}
