package main

// One request end to end, the way the command-line tools drive the library:
// spec JSON in, ParseSpec -> Resolve -> Execute / Autotune / Fleet / Decode
// -> Write*JSON, encoded bytes out. The meter brackets exactly that span;
// the output checks run after it, off the clock.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"syscall"
	"time"

	helix "repro"
)

// outcome is what one request produced.
type outcome struct {
	out   []byte        // the encoded output
	rows  int           // reports, tune grid points, fleet jobs or decode lattice points
	first time.Duration // request start to the first row
}

// meter accounts the timed span of each request: wall clock, process CPU
// and heap allocation. The start time is public so executors can time the
// first row against it.
type meter struct {
	t0      time.Time
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	objects uint64

	samples [2]metrics.Sample
	ru      syscall.Rusage
}

func newMeter() *meter {
	m := &meter{}
	m.samples[0].Name = "/gc/heap/allocs:bytes"
	m.samples[1].Name = "/gc/heap/allocs:objects"
	return m
}

func (m *meter) read() (cpu time.Duration, alloc, objects uint64) {
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru) // cannot fail with a valid pointer
	metrics.Read(m.samples[:])
	cpu = time.Duration(m.ru.Utime.Nano() + m.ru.Stime.Nano())
	return cpu, m.samples[0].Value.Uint64(), m.samples[1].Value.Uint64()
}

func (m *meter) start() {
	m.cpu, m.alloc, m.objects = m.read()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall = time.Since(m.t0)
	cpu, alloc, objects := m.read()
	m.cpu, m.alloc, m.objects = cpu-m.cpu, alloc-m.alloc, objects-m.objects
}

// execute runs one request end to end under the meter and checks its
// output. A returned error is a failed request: a yielded error, a panic or
// a failed check.
func execute(k kind, body []byte, m *meter) (o outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	switch k {
	case kindCells:
		return executeCells(body, m)
	case kindTune:
		return executeTune(body, m)
	case kindFleet:
		return executeFleet(body, m)
	default:
		return executeDecode(body, m)
	}
}

func executeCells(body []byte, m *meter) (outcome, error) {
	m.start()
	spec, err := helix.ParseSpec(bytes.NewReader(body))
	if err != nil {
		return outcome{}, err
	}
	session, rs, err := spec.Resolve()
	if err != nil {
		return outcome{}, err
	}
	var o outcome
	var reports []*helix.Report
	for r, err := range session.Execute(spec) {
		if err != nil {
			return outcome{}, err
		}
		if reports == nil {
			o.first = time.Since(m.t0)
		}
		reports = append(reports, r)
	}
	var buf bytes.Buffer
	if err := helix.WriteReportsJSON(&buf, reports); err != nil {
		return outcome{}, err
	}
	m.stop()
	o.out, o.rows = buf.Bytes(), len(reports)
	return o, checkCells(session, rs, reports)
}

func executeTune(body []byte, m *meter) (outcome, error) {
	m.start()
	spec, err := helix.ParseSpec(bytes.NewReader(body))
	if err != nil {
		return outcome{}, err
	}
	session, rs, err := spec.Resolve()
	if err != nil {
		return outcome{}, err
	}
	res, err := session.Autotune(*rs.Tune)
	if err != nil {
		return outcome{}, err
	}
	first := time.Since(m.t0)
	var buf bytes.Buffer
	if err := helix.WriteTuneResultJSON(&buf, res); err != nil {
		return outcome{}, err
	}
	m.stop()
	return outcome{out: buf.Bytes(), rows: res.GridSize, first: first}, checkTune(rs, res)
}

func executeFleet(body []byte, m *meter) (outcome, error) {
	m.start()
	spec, err := helix.ParseSpec(bytes.NewReader(body))
	if err != nil {
		return outcome{}, err
	}
	session, rs, err := spec.Resolve()
	if err != nil {
		return outcome{}, err
	}
	// Like helixfleet: one observable cache for the run.
	fs := *rs.Fleet
	fs.Cache = helix.NewReportCache()
	rep, err := session.Fleet(fs)
	if err != nil {
		return outcome{}, err
	}
	first := time.Since(m.t0)
	var buf bytes.Buffer
	if err := helix.WriteFleetReportJSON(&buf, rep); err != nil {
		return outcome{}, err
	}
	m.stop()
	return outcome{out: buf.Bytes(), rows: len(rep.JobRecords), first: first}, checkFleet(rs, rep)
}

func executeDecode(body []byte, m *meter) (outcome, error) {
	m.start()
	spec, err := helix.ParseSpec(bytes.NewReader(body))
	if err != nil {
		return outcome{}, err
	}
	session, rs, err := spec.Resolve()
	if err != nil {
		return outcome{}, err
	}
	rep, err := session.Decode(*rs.Decode)
	if err != nil {
		return outcome{}, err
	}
	first := time.Since(m.t0)
	var buf bytes.Buffer
	if err := helix.WriteDecodeReportJSON(&buf, rep); err != nil {
		return outcome{}, err
	}
	m.stop()
	return outcome{out: buf.Bytes(), rows: rep.GridSize, first: first}, checkDecode(rs, rep)
}

// The output checks: invariants every correct answer satisfies, whatever
// the drawn parameters.

func positive(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

func checkCells(session *helix.Session, rs helix.RunSet, reports []*helix.Report) error {
	if len(reports) != len(rs.Cells) {
		return fmt.Errorf("%d reports for %d cells", len(reports), len(rs.Cells))
	}
	topo, placed := session.Topology()
	for i, r := range reports {
		c := rs.Cells[i]
		if r.Method != c.Method || r.Stages != c.Stages || r.SeqLen != c.SeqLen {
			return fmt.Errorf("report %d is %s seq=%d p=%d, cell is %s seq=%d p=%d",
				i, r.Method, r.SeqLen, r.Stages, c.Method, c.SeqLen, c.Stages)
		}
		if r.Sim == nil || !positive(r.Sim.IterationSeconds) || !positive(r.Sim.TokensPerSecond) ||
			r.Sim.BubbleFraction < 0 || r.Sim.BubbleFraction >= 1 || len(r.Sim.PerStage) != r.Stages {
			return fmt.Errorf("report %d (%s): implausible sim metrics", i, r.Method)
		}
		if placed {
			if len(r.Placement) != r.Stages {
				return fmt.Errorf("report %d (%s): %d placed devices for %d stages", i, r.Method, len(r.Placement), r.Stages)
			}
			seen := map[int]bool{}
			for _, d := range r.Placement {
				if d < 0 || d >= topo.Devices() || seen[d] {
					return fmt.Errorf("report %d (%s): bad placement %v", i, r.Method, r.Placement)
				}
				seen[d] = true
			}
		}
	}
	return nil
}

func sumValues(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func checkTune(rs helix.RunSet, res *helix.TuneResult) error {
	if res.GridSize == 0 || res.Evaluated != len(res.Points) || res.Evaluated+sumValues(res.Pruned) != res.GridSize {
		return fmt.Errorf("tune accounting: grid %d, evaluated %d, pruned %v", res.GridSize, res.Evaluated, res.Pruned)
	}
	if (res.Evaluated > 0) != (len(res.Best) > 0) {
		return errors.New("tune: best picks disagree with the evaluated count")
	}
	for _, p := range res.Points {
		if !positive(p.TokensPerSecond) || p.PeakBytes > res.MemoryBudgetBytes {
			return fmt.Errorf("tune point %s: %g tokens/s, peak %d over budget %d",
				p.Candidate, p.TokensPerSecond, p.PeakBytes, res.MemoryBudgetBytes)
		}
	}
	return nil
}

func checkFleet(rs helix.RunSet, rep *helix.FleetReport) error {
	if rep.Jobs != len(rs.Fleet.Jobs) || len(rep.JobRecords) != rep.Jobs {
		return fmt.Errorf("fleet: %d jobs reported, %d records, %d submitted", rep.Jobs, len(rep.JobRecords), len(rs.Fleet.Jobs))
	}
	if rep.CacheHits+rep.CacheMisses < rep.Jobs {
		return fmt.Errorf("fleet: %d cache lookups for %d jobs", rep.CacheHits+rep.CacheMisses, rep.Jobs)
	}
	for _, j := range rep.JobRecords {
		if j.StartSec < j.ArrivalSec || j.EndSec <= j.StartSec || len(j.Devices) != j.Demand || !positive(j.IterationSec) {
			return fmt.Errorf("fleet job %s: implausible record", j.ID)
		}
	}
	return nil
}

func checkDecode(rs helix.RunSet, rep *helix.DecodeReport) error {
	if rep.GridSize == 0 || rep.Evaluated != len(rep.Points) || rep.Evaluated+sumValues(rep.Pruned) != rep.GridSize {
		return fmt.Errorf("decode accounting: grid %d, evaluated %d, pruned %v", rep.GridSize, rep.Evaluated, rep.Pruned)
	}
	if (rep.Evaluated > 0) != (rep.Best != nil) {
		return errors.New("decode: best pick disagrees with the evaluated count")
	}
	for _, p := range rep.Points {
		if len(p.TokenSeconds) != rs.Decode.Scenario.DecodeTokens || !positive(p.SecondsPerToken) {
			return fmt.Errorf("decode point %s: implausible token latencies", p.Sharding)
		}
	}
	return nil
}
