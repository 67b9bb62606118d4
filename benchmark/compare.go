package main

// The metric table, and the offline modes over recorded runs: -summarize
// (medians, quartiles and the traced split of a run file) and -compare (a
// verdict per workload and end-to-end metric between two run files, under
// the bounds BENCHMARK.json fixes).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as a user of the library
// sees them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p95_ms", "ms"},
	{"first_row_p50_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_kb_per_cell", "KiB"},
	{"rss_p95_mb", "MiB"},
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + "_us", "us"}, metricDef{l + ".calls", "count"},
			metricDef{l + ".share_pct", "%"})
	}
	return append(out,
		metricDef{"trace.coverage_pct", "%"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"cache.hit_ratio", "ratio"},
		metricDef{"cache.bytes_per_entry", "B"},
		metricDef{"tune.survivor_ratio", "ratio"},
		metricDef{"tune.cost_eval_ratio", "ratio"},
		metricDef{"decode.kept_ratio", "ratio"},
		metricDef{"runtime.gc_pct", "%"},
		metricDef{"runtime.allocs_per_cell", "count"},
	)
}()

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one recorded run: the result line of one invocation.
type runRecord struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Trace    int        `json:"trace"`
	Result   resultLine `json:"result"`
}

// readRuns reads a run file: JSON lines of run records (record.sh writes
// them), or a -summarize document, whose runs field holds the records.
func readRuns(path string) ([]runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Runs []runRecord `json:"runs"`
	}
	if json.Unmarshal(b, &doc) == nil && len(doc.Runs) > 0 {
		return doc.Runs, nil
	}
	var runs []runRecord
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	if len(d) < 2 {
		if len(d) == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	var q [3]float64
	n, m := 4, len(d)+1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(float64(n)-delta) + d[j]*delta) / float64(n)
	}
	return q[0], q[1], q[2]
}

// values collects one metric of a workload's untraced runs, keyed by seed.
func values(runs []runRecord, workload, metric string) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, r := range runs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Result.Metrics[metric]; ok {
				out[r.Seed] = m.Value
			}
		}
	}
	return out
}

func sorted(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// benchFile is the part of BENCHMARK.json the compare mode and the smoke
// test read.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// compareMain prints a verdict per workload and end-to-end metric. Pairs
// are the runs of equal seed; spread is the base side's interquartile range
// over its median. A change is worse when its median is worse than the
// base's by more than the bound; better when it wins at least nine pairs in
// ten and the medians differ by more than the base's interquartile range;
// unresolved when the base's spread exceeds the bound, unless every head run
// beats every base run. It exits 1 when any metric is worse.
func compareMain(basePath, headPath string, stdout, stderr io.Writer) int {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v (run from the repository root)\n", err)
		return 2
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		fmt.Fprintf(stderr, "benchmark: BENCHMARK.json: %v\n", err)
		return 2
	}
	base, err := readRuns(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	head, err := readRuns(headPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\thead median [q1, q3]\tchange\tbound\tpairs won\tverdict")
	worse := false
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			bv, hv := values(base, w.Name, m.Name), values(head, w.Name, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			sign := 1.0 // +1: higher is better
			if m.Better == "lower" {
				sign = -1
			}
			bq1, bmed, bq3 := quartiles(sorted(bv))
			hq1, hmed, hq3 := quartiles(sorted(hv))
			won, pairs := 0, 0
			for seed, x := range bv {
				if y, ok := hv[seed]; ok {
					pairs++
					if sign*(y-x) > 0 {
						won++
					}
				}
			}
			hs, bs := sorted(hv), sorted(bv)
			allBetter := sign > 0 && hs[0] > bs[len(bs)-1] || sign < 0 && hs[len(hs)-1] < bs[0]
			gain := sign * (hmed - bmed) / math.Abs(bmed) // > 0: better
			verdict := "same"
			switch {
			case (bq3-bq1)/math.Abs(bmed) > m.Bound:
				verdict = "unresolved"
				if allBetter {
					verdict = "better"
				}
			case pairs > 0 && float64(won) >= 0.9*float64(pairs) && math.Abs(hmed-bmed) > bq3-bq1:
				verdict = "better"
			case -gain > m.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.0f%%\t%d/%d\t%s\n",
				w.Name, m.Name, m.Unit, bmed, bq1, bq3, hmed, hq1, hq3, 100*gain, 100*m.Bound, won, pairs, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if worse {
		return 1
	}
	return 0
}

// summarizeMain prints a results document for a run file: per workload, the
// median and quartiles of every end-to-end metric over the untraced runs
// and the per-layer metrics of the first traced run, followed by the runs
// themselves, so -compare reads the document back.
func summarizeMain(path string, stdout, stderr io.Writer) int {
	runs, err := readRuns(path)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	type quart struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Unit   string  `json:"unit"`
	}
	type summary struct {
		Runs    int                `json:"runs"`
		Seeds   []uint64           `json:"seeds"`
		Metrics map[string]quart   `json:"metrics"`
		Trace   map[string]float64 `json:"trace,omitempty"`
	}
	doc := struct {
		Hardware  string             `json:"hardware"`
		Workloads map[string]summary `json:"workloads"`
		Runs      []runRecord        `json:"runs"`
	}{Hardware: hardware(), Workloads: map[string]summary{}, Runs: runs}
	for _, w := range workloads {
		s := summary{Metrics: map[string]quart{}}
		for _, r := range runs {
			if r.Workload != w.name {
				continue
			}
			if r.Trace == 1 && s.Trace == nil {
				s.Trace = map[string]float64{}
				for k, v := range r.Result.Metrics {
					s.Trace[k] = v.Value
				}
			}
			if r.Trace == 0 {
				s.Runs++
				s.Seeds = append(s.Seeds, r.Seed)
			}
		}
		if s.Runs == 0 {
			continue
		}
		for _, m := range endToEnd {
			q1, med, q3 := quartiles(sorted(values(runs, w.name, m.name)))
			s.Metrics[m.name] = quart{med, q1, q3, m.unit}
		}
		doc.Workloads[w.name] = s
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// hardware describes the machine the summary was taken on.
func hardware() string {
	cpu := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("%s, %d CPUs, GOMAXPROCS %d, %s %s/%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
