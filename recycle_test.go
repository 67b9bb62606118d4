package helixpipe

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sched"
)

// recycleSessions returns the geometries TestRecycledEqualsFresh builds
// every method on: 1.3B to 13B, p ∈ {2, 3, 4, 8} where p divides the
// layers, and on each of flat, variable-length and placed books m = 2p (the
// paper's) and one of p, 3p and 4p in turn.
func recycleSessions(t *testing.T) []*Session {
	t.Helper()
	topo := cluster.DGXA800x4()
	var out []*Session
	turn := 0
	for _, mc := range []ModelConfig{Model1B3(), Model3B(), Model7B(), Model13B()} {
		for _, p := range []int{2, 3, 4, 8} {
			if mc.Layers%p != 0 {
				continue
			}
			for book := 0; book < 3; book++ {
				other := []int{p, 3 * p, 4 * p}[turn%3]
				turn++
				for _, m := range []int{2 * p, other} {
					opts := []Option{WithStages(p), WithSeqLen(8192), WithMicroBatches(m)}
					switch book {
					case 1:
						shapes := make([]Shape, m)
						for i := range shapes {
							shapes[i] = Shape{B: 1, S: 2048 * (1 + (3*i+m)%4)}
						}
						opts = append(opts, WithWorkload(BatchSpec{Shapes: shapes}))
					case 2:
						opts = append(opts, WithCluster(topo))
					}
					s, err := NewSession(mc, H20Cluster(), opts...)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// fillerMethod names a method other than m whose plan at twice m's micro
// batches outgrows m's: HelixPipe for a layer-wise method, another
// HelixPipe variant for a HelixPipe one.
func fillerMethod(m sched.Method) sched.Method {
	switch m {
	case sched.MethodHelix:
		return sched.MethodHelixNoRecompute
	case sched.MethodHelixNoRecompute:
		return sched.MethodHelixNaive
	case sched.MethodHelixNaive:
		return sched.MethodHelix
	}
	return sched.MethodHelix
}

// scratchSession is larger than every recycleSessions geometry in stages,
// micro batches and layers: 48 layers of the 1.3B model on 12 stages, 48
// micro batches, a geometry every registered method builds.
func scratchSession(t *testing.T) *Session {
	t.Helper()
	mc := Model1B3()
	mc.Name, mc.Layers = "1.3B-48L", 48
	s, err := NewSession(mc, H20Cluster(), WithStages(12), WithSeqLen(8192), WithMicroBatches(48))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRecycledEqualsFresh builds every registered method into a slab that
// last held a larger plan of another method, so every slot the build writes
// held another method's op, and requires the programs to equal a build in
// fresh memory and the plan to validate. A builder that stores an op field
// by field into a recycled slot leaves the previous op's other fields behind
// and fails here. Before that build the method is built once on a larger
// geometry (scratchSession), with only the filler, a HelixPipe build that
// takes no pooled scratch, in between, so a builder drawing its scratch from
// a pool gets arrays sized and filled by another geometry's build; one that
// reads a stale entry before writing it fails here too. On one processor
// the free list holds at most one slab and every build takes or drops it,
// so a build that is not recycled leaves the list empty: the reference and
// scratch builds find no slab, and the filler's is the only one the build
// under test can take. One P also keeps the pools' puts and gets on one
// per-P cache.
func TestRecycledEqualsFresh(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocated := obs.Default().Counter("helix_plan_slab_allocated_total")
	big := scratchSession(t)
	bigCosts, bigParams := big.Costs(), big.buildParams()
	// A put on one processor bounds the list at one slab, which the next
	// build, not recycled, takes or drops: the list starts empty.
	warm, err := big.Plan(MethodGPipe)
	if err != nil {
		t.Fatal(err)
	}
	sched.Recycle(warm)
	if _, err := big.Plan(MethodGPipe); err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, s := range recycleSessions(t) {
		costs, params := s.Costs(), s.buildParams()
		// The filler geometry: at least twice the micro batches, a multiple
		// of 2p so every HelixPipe variant builds.
		p, m := s.Stages(), s.MicroBatches()
		fs, err := s.With(WithMicroBatches((2*m + 2*p - 1) / (2 * p) * 2 * p))
		if err != nil {
			t.Fatal(err)
		}
		for _, reg := range sched.Registrations() {
			a0 := allocated.Value()
			fresh, err := reg.Build(s.schedConfig(), costs, params)
			if err != nil {
				continue // a geometry the method does not allow
			}
			if a := allocated.Value() - a0; a != 1 {
				t.Fatalf("%s p=%d m=%d: the reference build allocated %d slabs, want 1", reg.Name, p, m, a)
			}
			if _, err := reg.Build(big.schedConfig(), bigCosts, bigParams); err != nil {
				t.Fatalf("%s on the scratch geometry: %v", reg.Name, err)
			}
			filler, err := sched.Build(fillerMethod(reg.Name), fs.schedConfig(), fs.Costs(), fs.buildParams())
			if err != nil {
				t.Fatalf("%s filler for %s p=%d m=%d: %v", fillerMethod(reg.Name), reg.Name, p, m, err)
			}
			if filler.NumOps() <= fresh.NumOps() {
				t.Fatalf("%s filler has %d ops, not more than %s's %d", filler.Method, filler.NumOps(),
					reg.Name, fresh.NumOps())
			}
			first := &filler.Ops[0][0]
			sched.Recycle(filler)
			got, err := reg.Build(s.schedConfig(), costs, params)
			if err != nil {
				t.Fatalf("%s p=%d m=%d on a recycled slab: %v", reg.Name, p, m, err)
			}
			if &got.Ops[0][0] != first {
				t.Fatalf("%s p=%d m=%d was not built into the recycled slab", reg.Name, p, m)
			}
			if got.Method != fresh.Method || !reflect.DeepEqual(got.Ops, fresh.Ops) {
				t.Fatalf("%s %s p=%d m=%d: the recycled build differs from a fresh one",
					s.Model().Name, reg.Name, p, m)
			}
			if err := sched.Validate(got); err != nil {
				t.Fatalf("%s p=%d m=%d on a recycled slab: %v", reg.Name, p, m, err)
			}
			cells++
		}
	}
	if cells < 500 {
		t.Fatalf("compared %d cells, want at least 500", cells)
	}
	t.Logf("compared %d cells", cells)
}

// TestExecuteReusesSlabs runs no-cache sweeps of every method at two
// sequence lengths through Execute, one worker wide, and counts the slab
// traffic on the default registry: a build allocates only when it needs a
// larger slab than any the free list holds, so at least 15 of the 18
// builds reuse a slab. The race detector randomizes
// goroutine scheduling, so there the cells of the launch window start in a
// random order, and a larger plan built before a smaller one moves which
// builds allocate; the count is checked only without it.
func TestExecuteReusesSlabs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes the order in which one worker starts the cells")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reused := obs.Default().Counter("helix_plan_slab_reused_total")
	allocated := obs.Default().Counter("helix_plan_slab_allocated_total")
	for _, g := range []struct {
		model  string
		stages int
	}{{"1.3B", 2}, {"3B", 4}, {"3B", 8}, {"7B", 8}, {"13B", 4}} {
		spec := &ExperimentSpec{Model: g.model, Cluster: "H20", NoCache: true,
			Sweep: &SpecSweep{SeqLens: []int{16384, 32768}, Stages: []int{g.stages}}}
		s, _, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		r0, a0 := reused.Value(), allocated.Value()
		reports, err := collectReports(s.Execute(spec))
		if err != nil {
			t.Fatal(err)
		}
		r, a := reused.Value()-r0, allocated.Value()-a0
		t.Logf("%s p=%d: %d builds reused a slab, %d allocated one", g.model, g.stages, r, a)
		if len(reports) != 18 || r+a != 18 || r < 15 {
			t.Errorf("%s p=%d: %d cells, %d builds reused a slab and %d allocated one; want 18 cells, at least 15 reused",
				g.model, g.stages, len(reports), r, a)
		}
	}
}

// sweepJSON runs a no-cache sweep spec through Execute and returns its
// reports as JSON.
func sweepJSON(t *testing.T, s *Session, spec *ExperimentSpec) []byte {
	t.Helper()
	reports, err := collectReports(s.Execute(spec))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReportsJSON(&buf, reports); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reuseSpec is an 18-cell no-cache sweep of every method on 3B at p=4.
func reuseSpec(t *testing.T) (*Session, *ExperimentSpec) {
	t.Helper()
	spec := &ExperimentSpec{Model: "3B", Cluster: "H20", NoCache: true,
		Sweep: &SpecSweep{SeqLens: []int{16384, 32768}, Stages: []int{4}}}
	s, _, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return s, spec
}

// TestExecuteReusesListAcrossCalls runs one sweep twice through Execute, one
// worker wide. The first call leaves the largest slab it built on the free
// list, so the second call finds a slab for every build: it allocates none,
// and reports what the first did.
func TestExecuteReusesListAcrossCalls(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reused := obs.Default().Counter("helix_plan_slab_reused_total")
	allocated := obs.Default().Counter("helix_plan_slab_allocated_total")
	s, spec := reuseSpec(t)
	first := sweepJSON(t, s, spec)
	r0, a0 := reused.Value(), allocated.Value()
	second := sweepJSON(t, s, spec)
	if r, a := reused.Value()-r0, allocated.Value()-a0; a != 0 || r != 18 {
		t.Errorf("the second call reused a slab in %d builds and allocated one in %d, want 18 and 0", r, a)
	}
	if !bytes.Equal(first, second) {
		t.Error("the second call's reports differ from the first's")
	}
}

// TestSimulateReusesSlab simulates one method twice on a session outside
// Execute: Session.Run recycles the plan of every sim-engine run, so the
// second build finds the first one's slab and allocates none.
func TestSimulateReusesSlab(t *testing.T) {
	allocated := obs.Default().Counter("helix_plan_slab_allocated_total")
	s, err := NewSession(Model3B(), H20Cluster(), WithStages(4), WithSeqLen(16384))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Simulate(MethodHelix)
	if err != nil {
		t.Fatal(err)
	}
	a0 := allocated.Value()
	second, err := s.Simulate(MethodHelix)
	if err != nil {
		t.Fatal(err)
	}
	if a := allocated.Value() - a0; a != 0 {
		t.Errorf("the second Simulate allocated %d slabs, want 0", a)
	}
	if !reflect.DeepEqual(first.Sim, second.Sim) {
		t.Error("the second Simulate reports differently from the first")
	}
}

// TestFleetReusesSlabs runs the committed fleet study twice through
// Session.Fleet on two processors, each run with a fresh report cache. The
// first run leaves its largest slabs on the free list, whichever processor
// the next run's builds land on, so the second run's cache misses allocate
// no slab.
func TestFleetReusesSlabs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	allocated := obs.Default().Counter("helix_plan_slab_allocated_total")
	study := fleetStudy(t, 0, "")
	study()
	a0 := allocated.Value()
	study()
	if a := allocated.Value() - a0; a != 0 {
		t.Errorf("the second fleet run allocated %d slabs, want 0", a)
	}
}

// TestStragglersRecycleIntoSharedList breaks out of a sweep after its first
// report and starts the same sweep at once. The first call's cells still in
// flight then recycle their plans into the free list while the second call
// builds from it. Under -race this checks the sharing; either way the
// second call must report what a fresh run does.
func TestStragglersRecycleIntoSharedList(t *testing.T) {
	s, spec := reuseSpec(t)
	want := sweepJSON(t, s, spec)
	for range s.Execute(spec) {
		break
	}
	if got := sweepJSON(t, s, spec); !bytes.Equal(got, want) {
		t.Error("a sweep started beside a broken-off one's stragglers reports differently from a fresh run")
	}
}
