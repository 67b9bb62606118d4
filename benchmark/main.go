// Command benchmark times the spec -> report path of the helixpipe library
// end to end and, in a separate traced run, layer by layer. Run it from the
// repository root:
//
//	bash benchmark/run.sh --workload sweep-flat --seed 1 --seconds 10 --trace 0
//
// A run first replays every examples/*/*.json spec against its golden
// output and aborts on drift. The workload then runs in child processes of
// this program, one at a time: one measures, two more only set up, so the
// set-up time is a median of three cold starts. A single closed-loop client
// submits one generated ExperimentSpec at a time; the library's own pools
// fan each request out over GOMAXPROCS workers. The run is fixed work: one
// warm-up round, then one measured round per second of --seconds, each
// round the workload's fixed number of fresh requests. Between requests,
// off the clock, the measuring process times a calibration kernel, and the
// end-to-end times are reported at a fixed host speed (calib.go). The last
// line of standard output is the result as one JSON object; --trace 1
// reports the per-layer metrics of round 1 instead of the end-to-end ones.
// See README.md for the workloads, the metrics and the compare mode.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// childEnv carries a child process's role; children get the parent's flags.
const childEnv = "HELIXBENCH_CHILD"

// minRequests keeps at least ten samples beyond the reported p95.
const minRequests = 200

// setupRuns is how many cold processes the set-up median is taken over.
const setupRuns = 3

// started is when the program entered run: the start of set-up.
var started time.Time

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload workload
	seed     uint64
	seconds  int
	trace    bool
	requests int    // per-round request count; 0 keeps the workload's
	perfetto string // traced run: write the spans here
}

// rounds is the number of measured rounds: one per second of --seconds.
func (o options) rounds() int { return max(o.seconds, 1) }

func (o options) perRound() int {
	if o.requests > 0 {
		return o.requests
	}
	return o.workload.perRound
}

// childArgs are the flags a child process needs, with its round count.
func (o options) childArgs(seconds int) []string {
	args := []string{"--workload", o.workload.name, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.Itoa(seconds), "--requests", strconv.Itoa(o.requests)}
	if o.perfetto != "" {
		args = append(args, "--perfetto", o.perfetto)
	}
	return args
}

func run(args []string, stdout, stderr io.Writer) int {
	started = time.Now()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "nominal run length: one measured round per second")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	requests := fs.Int("requests", 0, "requests per round (default: the workload's; smoke runs only)")
	perfetto := fs.String("perfetto", "", "with --trace 1, write the traced spans as a Perfetto trace")
	compare := fs.Bool("compare", false, "compare two run files: -compare BASE HEAD")
	summarize := fs.Bool("summarize", false, "summarize a run file: -summarize RUNS")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes BASE and HEAD run files")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *summarize:
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "benchmark: -summarize takes one run file")
			return 2
		}
		return summarizeMain(fs.Arg(0), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (known: %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: --trace is 0 or 1")
		return 2
	}
	opt := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		requests: *requests, perfetto: *perfetto}
	if role := os.Getenv(childEnv); role != "" {
		return child(role, opt, stdout, stderr)
	}
	return parent(opt, stdout, stderr)
}

// childResult is the one JSON line a child prints for the parent. Its
// times are raw; KernelMS is the median time of the calibration kernel
// between its requests and Steal the share of processor time stolen while
// they ran.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Requests  int                `json:"requests"`
	Digest    string             `json:"digest"`
	MeanReqMS float64            `json:"mean_req_ms"`
	KernelMS  float64            `json:"kernel_ms,omitempty"`
	Kernels   int                `json:"kernels,omitempty"`
	Steal     float64            `json:"steal,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
}

func parent(opt options, stdout, stderr io.Writer) int {
	n, err := checkGoldens()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: golden check: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "goldens ok: %d example specs reproduce their golden outputs\n", n)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if opt.trace {
		return parentTrace(ctx, opt, stdout, stderr)
	}
	m, err := spawn(ctx, "measure", opt.childArgs(opt.seconds), stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if m.Requests < minRequests && opt.requests == 0 {
		fmt.Fprintf(stderr, "benchmark: %d measured requests, need %d for a p95 with ten samples beyond it\n",
			m.Requests, minRequests)
		return 1
	}
	setups := []float64{m.SetupS}
	for len(setups) < setupRuns {
		s, err := spawn(ctx, "setup", opt.childArgs(opt.seconds), stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		setups = append(setups, s.SetupS)
	}
	m.Metrics["setup_s"] = median(setups)
	fmt.Fprintf(stdout, "workload %s seed %d: requests %d in %d rounds, GOMAXPROCS %d\n",
		opt.workload.name, opt.seed, m.Requests, opt.rounds(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "output_digest %s\n", m.Digest)
	rawLine, err := json.Marshal(m.Metrics)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "calibration kernel: median %.4f ms over %d samples, nominal %.1f ms; %.2f%% of processor time stolen\n",
		m.KernelMS, m.Kernels, calibNominalMS, 100*m.Steal)
	fmt.Fprintf(stdout, "raw metrics at the host's own speed: %s\n", rawLine)
	metrics := calibrated(m)
	return printResult(stdout, stderr, m.Failed == 0, m.Attempted, m.Failed, metrics, endToEnd)
}

// parentTrace runs round 1 twice in fresh processes after the same warm-up:
// once end to end, once traced. The two outputs must agree byte for byte.
func parentTrace(ctx context.Context, opt options, stdout, stderr io.Writer) int {
	e2e, err := spawn(ctx, "measure", opt.childArgs(1), stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	tr, err := spawn(ctx, "trace", opt.childArgs(1), stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	same := e2e.Digest == tr.Digest
	fmt.Fprintf(stdout, "output_digest %s (end to end) %s (traced)\n", e2e.Digest, tr.Digest)
	if !same {
		fmt.Fprintln(stderr, "benchmark: the traced call chain computed different outputs than the end-to-end path")
	}
	metrics := tr.Metrics
	// Each process's request time at the nominal host speed.
	metrics["trace.overhead_pct"] = 100 * (tr.MeanReqMS*tr.wallFactor()/(e2e.MeanReqMS*e2e.wallFactor()) - 1)
	metrics["runtime.gc_pct"] = e2e.Metrics["runtime.gc_pct"]
	metrics["runtime.allocs_per_cell"] = e2e.Metrics["runtime.allocs_per_cell"]
	failed := e2e.Failed + tr.Failed
	return printResult(stdout, stderr, same && failed == 0, e2e.Attempted+tr.Attempted, failed, metrics, perLayer)
}

// spawn runs this program as a child in the given role, waits for it and
// decodes its result line.
func spawn(ctx context.Context, role string, args []string, stderr io.Writer) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"="+role)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return childResult{}, fmt.Errorf("%s child: %w", role, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return childResult{}, fmt.Errorf("%s child: bad result line: %w", role, err)
	}
	return res, nil
}

// printResult prints the final line: every named metric with its unit.
func printResult(stdout, stderr io.Writer, correct bool, attempted, failed int, values map[string]float64, names []metricDef) int {
	out := resultLine{correct, attempted, failed, map[string]metricValue{}}
	for _, m := range names {
		out.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func child(role string, opt options, stdout, stderr io.Writer) int {
	var res childResult
	var err error
	switch role {
	case "setup":
		var s *state
		if s, err = setup(opt, opt.rounds()); err == nil {
			res = childResult{SetupS: s.setupS, Attempted: s.attempted, Failed: s.failed}
		}
	case "measure":
		res, err = measure(opt)
	case "trace":
		res, err = traceRound(opt)
	default:
		err = fmt.Errorf("unknown child role %q", role)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark %s child: %v\n", role, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark %s child: %v\n", role, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// state is a set-up workload: its request corpus, round by round, with the
// warm-up round (round 0) already run.
type state struct {
	corpus    [][][]byte
	setupS    float64
	attempted int
	failed    int
}

// setup generates the corpus of the warm-up round plus `rounds` measured
// rounds and runs the warm-up round: cost-book memo fill, runner-pool growth
// and every other lazy start-up cost lands here, not in the timed rounds.
func setup(opt options, rounds int) (*state, error) {
	s := &state{corpus: make([][][]byte, rounds+1)}
	for r := range s.corpus {
		s.corpus[r] = make([][]byte, opt.perRound())
		for i := range s.corpus[r] {
			spec := opt.workload.gen(requestRand(opt.workload.name, opt.seed, r, i), i)
			body, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			s.corpus[r][i] = body
		}
	}
	m := newMeter()
	for i, body := range s.corpus[0] {
		s.attempted++
		if _, err := execute(opt.workload.kind, body, m); err != nil {
			s.failed++
			fmt.Fprintf(os.Stderr, "benchmark: warm-up request %d: %v\n", i, err)
		}
	}
	s.setupS = time.Since(started).Seconds()
	return s, nil
}

// digest hashes the outputs of a run's requests, in order; a failed request
// hashes its error.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(out []byte, err error) {
	if err != nil {
		out = []byte("error: " + err.Error())
	}
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(out)))
	d.h.Write(n[:])
	d.h.Write(out)
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil)) }

// gcCPU reads the runtime's GC and total CPU-time estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// measure sets up, then runs the measured rounds end to end, sampling the
// calibration kernel between requests. Rates are the median over rounds;
// latencies, CPU time and resident memory are pooled over every request of
// every round.
func measure(opt options) (childResult, error) {
	s, err := setup(opt, opt.rounds())
	if err != nil {
		return childResult{}, err
	}
	res := childResult{SetupS: s.setupS, Attempted: s.attempted, Failed: s.failed}
	c, err := newCalibrator()
	if err != nil {
		return childResult{}, err
	}
	defer c.Close()
	d := newDigest()
	m := newMeter()
	var (
		reqRates, cellRates []float64
		lat, first, rss     []float64
		wall, cpu           time.Duration
		alloc, objects      uint64
		cells               int
	)
	gc0, total0 := gcCPU()
	stolen := newStealMeter()
	for r := 1; r < len(s.corpus); r++ {
		var roundWall time.Duration
		ok, roundCells := 0, 0
		for i, body := range s.corpus[r] {
			res.Attempted++
			o, err := execute(opt.workload.kind, body, m)
			d.add(o.out, err)
			if err != nil {
				res.Failed++
				fmt.Fprintf(os.Stderr, "benchmark: round %d request %d: %v\n", r, i, err)
				continue
			}
			ok++
			roundCells += o.rows
			roundWall += m.wall
			lat = append(lat, ms(m.wall))
			first = append(first, ms(o.first))
			rss = append(rss, residentMB()-c.residentMB())
			cpu += m.cpu
			alloc += m.alloc
			objects += m.objects
			c.after(m.wall)
		}
		if ok == 0 {
			return childResult{}, fmt.Errorf("round %d: every request failed", r)
		}
		reqRates = append(reqRates, float64(ok)/roundWall.Seconds())
		cellRates = append(cellRates, float64(roundCells)/roundWall.Seconds())
		wall += roundWall
		cells += roundCells
		res.Requests += ok
	}
	res.Steal = stolen.share()
	gc1, total1 := gcCPU()
	// The total counts every processor over the whole window; the time the
	// calibration took is not the requests'.
	total1 -= c.spent.Seconds() * float64(runtime.GOMAXPROCS(0))
	gcPct := 0.0
	if total1 > total0 { // the runtime refreshes its CPU estimates only now and then
		gcPct = 100 * (gc1 - gc0) / (total1 - total0)
	}
	c.topUp()
	res.KernelMS, res.Kernels = c.ms(), len(c.samples)
	res.Digest = d.String()
	res.MeanReqMS = ms(wall) / float64(res.Requests)
	res.Metrics = map[string]float64{
		"req_per_s":               median(reqRates),
		"cells_per_s":             median(cellRates),
		"req_p50_ms":              percentile(lat, 50),
		"req_p95_ms":              percentile(lat, 95),
		"first_row_p50_ms":        percentile(first, 50),
		"cpu_ms_per_req":          ms(cpu) / float64(res.Requests),
		"alloc_kb_per_cell":       float64(alloc) / 1024 / float64(cells),
		"rss_p95_mb":              percentile(rss, 95),
		"runtime.gc_pct":          gcPct,
		"runtime.allocs_per_cell": float64(objects) / float64(cells),
	}
	return res, nil
}

// traceRound sets up like measure, then runs round 1 decomposed and traced.
func traceRound(opt options) (childResult, error) {
	s, err := setup(opt, 1)
	if err != nil {
		return childResult{}, err
	}
	res := childResult{SetupS: s.setupS, Attempted: s.attempted, Failed: s.failed}
	c, err := newCalibrator()
	if err != nil {
		return childResult{}, err
	}
	defer c.Close()
	t := newTracer(1 + runtime.GOMAXPROCS(0))
	d := newDigest()
	var wall time.Duration
	stolen := newStealMeter()
	for i, body := range s.corpus[1] {
		res.Attempted++
		t0 := time.Now()
		out, err := traced(t, opt.workload.kind, i, body)
		took := time.Since(t0)
		wall += took
		d.add(out, err)
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "benchmark: traced request %d: %v\n", i, err)
			continue
		}
		res.Requests++
		c.after(took)
	}
	res.Steal = stolen.share()
	c.topUp()
	res.KernelMS, res.Kernels = c.ms(), len(c.samples)
	res.Digest = d.String()
	res.MeanReqMS = ms(wall) / float64(len(s.corpus[1]))
	res.Metrics = t.metrics()
	if opt.perfetto != "" {
		f, err := os.Create(opt.perfetto)
		if err != nil {
			return childResult{}, err
		}
		if err := t.writePerfetto(f, opt.workload.name); err != nil {
			f.Close()
			return childResult{}, err
		}
		if err := f.Close(); err != nil {
			return childResult{}, err
		}
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// residentMB reads the process's current resident set (VmRSS) in MiB.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the nearest-rank percentile.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(float64(len(s))*p/100 + 0.9999999)
	return s[min(max(rank, 1), len(s))-1]
}
