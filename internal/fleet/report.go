package fleet

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Stats summarizes a distribution of durations.
type Stats struct {
	// MeanSec, P50Sec, P90Sec, P99Sec and MaxSec describe the distribution.
	MeanSec float64 `json:"mean_sec"`
	P50Sec  float64 `json:"p50_sec"`
	P90Sec  float64 `json:"p90_sec"`
	P99Sec  float64 `json:"p99_sec"`
	MaxSec  float64 `json:"max_sec"`
}

// newStats computes distribution stats over the values (nearest-rank
// percentiles). The zero Stats is returned for an empty input.
func newStats(values []float64) Stats {
	if len(values) == 0 {
		return Stats{}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	pct := func(p float64) float64 {
		rank := int(math.Ceil(p / 100 * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		return sorted[rank-1]
	}
	return Stats{
		MeanSec: sum / float64(len(sorted)),
		P50Sec:  pct(50),
		P90Sec:  pct(90),
		P99Sec:  pct(99),
		MaxSec:  sorted[len(sorted)-1],
	}
}

// JobRecord is one job's outcome in the report.
type JobRecord struct {
	// ID, Template, Priority, Demand and Iterations echo the job.
	ID         string `json:"id"`
	Template   string `json:"template,omitempty"`
	Priority   int    `json:"priority,omitempty"`
	Demand     int    `json:"demand"`
	Iterations int    `json:"iterations"`
	// ArrivalSec, StartSec and EndSec are fleet-clock timestamps (StartSec is
	// the latest admission when the job was preempted and restarted).
	ArrivalSec float64 `json:"arrival_sec"`
	StartSec   float64 `json:"start_sec"`
	EndSec     float64 `json:"end_sec"`
	// WaitSec is the total queued time across admissions; JCTSec is
	// completion minus arrival (wait plus all run attempts).
	WaitSec float64 `json:"wait_sec"`
	JCTSec  float64 `json:"jct_sec"`
	// IterationSec is the simulated per-iteration time of the final run.
	IterationSec float64 `json:"iteration_sec"`
	// Devices is the fleet-global device id each pipeline stage ran on.
	Devices []int `json:"devices"`
	// Nodes is the node span of the final carve.
	Nodes int `json:"nodes"`
	// Preempted counts how often the job was evicted and re-queued.
	Preempted int `json:"preempted,omitempty"`
	// CacheHit reports whether the final run came from the result cache.
	CacheHit bool `json:"cache_hit"`
}

// LinkClassTraffic aggregates the fleet's total communication on one link
// class (per-iteration traffic scaled by each job's final iteration count).
type LinkClassTraffic struct {
	// Class is the link class name ("nvlink", "ib", ...).
	Class string `json:"class"`
	// Bytes is the total volume carried by the class.
	Bytes int64 `json:"bytes"`
	// Seconds is the total wire time spent on the class.
	Seconds float64 `json:"seconds"`
	// Transfers counts the messages.
	Transfers int64 `json:"transfers"`
}

// Report is the outcome of one fleet run.
type Report struct {
	// Cluster and Devices identify the shared cluster.
	Cluster string `json:"cluster"`
	Devices int    `json:"devices"`
	// Policy is the admission/placement policy the run used.
	Policy Policy `json:"policy"`
	// Jobs counts the completed jobs; Preemptions the evictions.
	Jobs        int `json:"jobs"`
	Preemptions int `json:"preemptions"`
	// CacheHits and CacheMisses count simulator cache outcomes across
	// admissions (preempted jobs simulate again on re-admission).
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// StartSec and MakespanSec bound the run: first arrival, and last
	// completion minus first arrival.
	StartSec    float64 `json:"start_sec"`
	MakespanSec float64 `json:"makespan_sec"`
	// Wait and JCT summarize queue wait and job completion time.
	Wait Stats `json:"wait"`
	JCT  Stats `json:"jct"`
	// Utilization is busy device-seconds over total device-seconds across
	// the makespan.
	Utilization float64 `json:"utilization"`
	// Fragmentation is the time-averaged fraction of devices that were free
	// but sitting on partially-occupied nodes — capacity a whole-node job
	// could not use.
	Fragmentation float64 `json:"fragmentation"`
	// ThroughputJobsPerHour is completed jobs per makespan hour.
	ThroughputJobsPerHour float64 `json:"throughput_jobs_per_hour"`
	// LinkTraffic is the fleet's total communication per link class, sorted
	// by class name.
	LinkTraffic []LinkClassTraffic `json:"link_traffic,omitempty"`
	// JobRecords is the per-job outcome in input order.
	JobRecords []JobRecord `json:"job_records"`
}

// report assembles the Report after the event loop drains. It fails when a
// link class's bytes or transfers, summed over every job's iterations,
// overflow int64.
func (e *engine) report(t0, end, busyDevSec, fragDevSec float64) (*Report, error) {
	r := &Report{
		Cluster:     e.c.Name,
		Devices:     e.c.Devices(),
		Policy:      e.policy,
		Jobs:        len(e.states),
		StartSec:    t0,
		MakespanSec: end - t0,
		CacheHits:   e.cacheHits,
		CacheMisses: e.cacheMisses,
	}
	waits := make([]float64, 0, len(e.states))
	jcts := make([]float64, 0, len(e.states))
	classes := map[string]*LinkClassTraffic{}
	for _, st := range e.states {
		j := st.job
		rec := JobRecord{
			ID:           j.ID,
			Template:     j.Template,
			Priority:     j.Priority,
			Demand:       j.Demand,
			Iterations:   j.Iterations,
			ArrivalSec:   j.ArrivalSec,
			StartSec:     st.startSec,
			EndSec:       st.endSec,
			WaitSec:      st.waitSec,
			JCTSec:       st.endSec - j.ArrivalSec,
			IterationSec: st.run.IterationSeconds,
			Devices:      st.placedDevs,
			Nodes:        st.nodes,
			Preempted:    st.preempted,
			CacheHit:     st.cacheHit,
		}
		r.Preemptions += st.preempted
		waits = append(waits, rec.WaitSec)
		jcts = append(jcts, rec.JCTSec)
		for _, lc := range st.run.LinkTraffic {
			agg := classes[lc.Class]
			if agg == nil {
				agg = &LinkClassTraffic{Class: lc.Class}
				classes[lc.Class] = agg
			}
			iters := int64(j.Iterations)
			bytes, okBytes := addProduct(agg.Bytes, lc.Bytes, iters)
			transfers, okTransfers := addProduct(agg.Transfers, int64(lc.Transfers), iters)
			if !okBytes || !okTransfers {
				return nil, fmt.Errorf("fleet: job %s: %d iterations overflow the %s link traffic (int64 bytes and transfers)",
					j.ID, j.Iterations, lc.Class)
			}
			agg.Bytes, agg.Transfers = bytes, transfers
			agg.Seconds += lc.Seconds * float64(j.Iterations)
		}
		r.JobRecords = append(r.JobRecords, rec)
	}
	r.Wait = newStats(waits)
	r.JCT = newStats(jcts)
	if r.MakespanSec > 0 {
		devSec := float64(r.Devices) * r.MakespanSec
		r.Utilization = busyDevSec / devSec
		r.Fragmentation = fragDevSec / devSec
		r.ThroughputJobsPerHour = float64(r.Jobs) / (r.MakespanSec / 3600)
	}
	for _, agg := range classes {
		r.LinkTraffic = append(r.LinkTraffic, *agg)
	}
	sort.Slice(r.LinkTraffic, func(i, j int) bool { return r.LinkTraffic[i].Class < r.LinkTraffic[j].Class })
	return r, nil
}

// addProduct returns acc + x*n for non-negative operands, and false when the
// product or the sum overflows int64.
func addProduct(acc, x, n int64) (int64, bool) {
	if n > 0 && x > (math.MaxInt64-acc)/n {
		return acc, false
	}
	return acc + x*n, true
}

// WriteJSON writes the report as indented JSON. The encoding is
// deterministic: identical runs produce byte-identical output.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CSVHeader is the column set of WriteCSV, one row per job.
func CSVHeader() []string {
	return []string{
		"job", "template", "priority", "demand", "iterations",
		"arrival_sec", "start_sec", "end_sec", "wait_sec", "jct_sec",
		"iteration_sec", "nodes", "preempted", "cache_hit",
	}
}

// WriteCSV writes the per-job records as CSV, one row per job in input order.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader()); err != nil {
		return err
	}
	for _, rec := range r.JobRecords {
		row := []string{
			rec.ID,
			rec.Template,
			strconv.Itoa(rec.Priority),
			strconv.Itoa(rec.Demand),
			strconv.Itoa(rec.Iterations),
			formatSec(rec.ArrivalSec),
			formatSec(rec.StartSec),
			formatSec(rec.EndSec),
			formatSec(rec.WaitSec),
			formatSec(rec.JCTSec),
			strconv.FormatFloat(rec.IterationSec, 'g', 8, 64),
			strconv.Itoa(rec.Nodes),
			strconv.Itoa(rec.Preempted),
			strconv.FormatBool(rec.CacheHit),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatSec(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// Summary renders a few human-facing lines of the report, as helix fleet
// prints them.
func (r *Report) Summary() string {
	s := fmt.Sprintf("%d jobs on %s (%d devices), policy %s\n",
		r.Jobs, r.Cluster, r.Devices, r.Policy.Name)
	s += fmt.Sprintf("  makespan    %10.1fs   throughput %.1f jobs/h\n",
		r.MakespanSec, r.ThroughputJobsPerHour)
	s += fmt.Sprintf("  queue wait  %10.1fs mean, %.1fs p50, %.1fs p99\n",
		r.Wait.MeanSec, r.Wait.P50Sec, r.Wait.P99Sec)
	s += fmt.Sprintf("  JCT         %10.1fs mean, %.1fs p50, %.1fs p99\n",
		r.JCT.MeanSec, r.JCT.P50Sec, r.JCT.P99Sec)
	s += fmt.Sprintf("  utilization %10.1f%%   fragmentation %.1f%%\n",
		100*r.Utilization, 100*r.Fragmentation)
	if r.Preemptions > 0 {
		s += fmt.Sprintf("  preemptions %10d\n", r.Preemptions)
	}
	s += fmt.Sprintf("  sim cache   %10d hits, %d misses\n", r.CacheHits, r.CacheMisses)
	return s
}
