package fleet

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// diffSim prices a job from its demand and the carve's node count, and
// places the stages on the carve's local devices in reverse, so runs differ
// by carve and the engine's local-to-global mapping is exercised.
type diffSim struct{ seen map[string]bool }

func (s *diffSim) Simulate(job Job, sub cluster.Cluster) (JobRun, error) {
	sig := Signature(sub)
	hit := s.seen[sig]
	s.seen[sig] = true
	devs := make([]int, job.Demand)
	for i := range devs {
		devs[i] = job.Demand - 1 - i
	}
	return JobRun{
		IterationSeconds: 1 + float64(job.Demand%5) + 2*float64(len(sub.Nodes)-1),
		Placement:        cluster.Placement{Devices: devs},
		LinkTraffic:      []sim.LinkClassStats{{Class: "nvlink", Bytes: int64(job.Demand), Seconds: 0.001, Transfers: 1}},
		CacheHit:         hit,
	}, nil
}

// diffPolicies are the five presets plus knob mixes no preset uses:
// preemption under arrival order, and priority order without backfill.
func diffPolicies() []Policy {
	ps := presets()
	return append(ps,
		Policy{Name: "arrival-preempt", Order: OrderArrival, Carve: CarveBest, Backfill: true, Preempt: true},
		Policy{Name: "priority-fifo", Order: OrderPriority, Carve: CarveFirst},
		Policy{Name: "priority-preempt-only", Order: OrderPriority, Carve: CarveWorst, Preempt: true},
	)
}

// diffStream draws a random job stream for a cluster of total devices.
// Arrivals either follow exponential gaps or land on a coarse integer grid
// (many equal times; with span 0 every job arrives at once); demands run from
// 1 to the whole cluster, priorities are mixed.
func diffStream(r *rand.Rand, total int) []Job {
	n := 1 + r.IntN(120)
	span := []float64{0, 3, 40}[r.IntN(3)]
	poisson := r.IntN(2) == 0
	jobs := make([]Job, n)
	at := 0.0
	for i := range jobs {
		if poisson {
			at += r.ExpFloat64() * 2
		} else {
			at = float64(r.IntN(int(span) + 1))
		}
		demand := 1 + r.IntN(total)
		if r.IntN(3) == 0 {
			demand = 1 + r.IntN(min(total, 4))
		}
		jobs[i] = Job{
			ID:         fmt.Sprintf("job%03d", i),
			ArrivalSec: at,
			Priority:   r.IntN(4),
			Demand:     demand,
			Iterations: 1 + r.IntN(5),
		}
	}
	return jobs
}

// checkQueue asserts the engine's queue invariants after an admission step:
// each demand queue holds only queued jobs of its demand, in admission order;
// demands lists exactly the non-empty queues, ascending; and queued counts
// every queued job.
func checkQueue(t *testing.T, e *engine) {
	t.Helper()
	var demands []int
	queued := 0
	for d, q := range e.queues {
		for i, st := range q {
			if st.state != jsQueued || st.job.Demand != d {
				t.Fatalf("queue %d holds %s (state %d, demand %d)", d, st.job.ID, st.state, st.job.Demand)
			}
			if i > 0 && !e.admitsBefore(q[i-1], st) {
				t.Fatalf("queue %d: %s is not after %s", d, st.job.ID, q[i-1].job.ID)
			}
		}
		if len(q) > 0 {
			demands = append(demands, d)
		}
		queued += len(q)
	}
	if !slices.Equal(e.demands, demands) || e.queued != queued {
		t.Fatalf("demands %v and %d queued, want %v and %d", e.demands, e.queued, demands, queued)
	}
}

// TestScheduleMatchesReference replays random streams on every topology
// preset and a small two-node cluster under every preset policy (and three
// knob mixes), once with the demand queues and once with the reference
// scheduler that re-sorts a copy of the queue per pass
// (schedule_ref_test.go), and requires byte-identical reports and the queue
// invariants after every admission step.
func TestScheduleMatchesReference(t *testing.T) {
	clusters := append(cluster.Presets(), twoNode())
	r := rand.New(rand.NewPCG(29, 1))
	streams, preempted := 0, 0
	for _, c := range clusters {
		for trial := 0; trial < 12; trial++ {
			jobs := diffStream(r, c.Devices())
			streams++
			for _, p := range diffPolicies() {
				name := fmt.Sprintf("%s/%s/trial%d", c.Name, p.Name, trial)
				checked := func(e *engine, at float64) error {
					err := e.schedule(at)
					checkQueue(t, e)
					return err
				}
				got, err := run(c, jobs, &diffSim{seen: map[string]bool{}}, Options{Policy: p}, checked)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := run(c, jobs, &diffSim{seen: map[string]bool{}}, Options{Policy: p}, (*engine).refSchedule)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				var gb, wb bytes.Buffer
				if err := got.WriteJSON(&gb); err != nil {
					t.Fatal(err)
				}
				if err := want.WriteJSON(&wb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
					t.Fatalf("%s: report differs from the reference scheduler's", name)
				}
				preempted += got.Preemptions
			}
		}
	}
	if preempted == 0 {
		t.Errorf("%d streams preempted nothing; the preemptive policies went untested", streams)
	}
}
