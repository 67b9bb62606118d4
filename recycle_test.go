package helixpipe

import (
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

// TestRecycledEqualsFresh builds every registered method on a free list
// into a slab that last held a larger plan of another method, so every slot
// the build writes held another method's op, and requires the programs to
// equal a build in fresh memory and the plan to validate. A builder that
// stores an op field by field into a recycled slot leaves the previous op's
// other fields behind and fails here.
func TestRecycledEqualsFresh(t *testing.T) {
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
			fresh, err := reg.Build(s.schedConfig(), costs, params)
			if err != nil {
				continue // a geometry the method does not allow
			}
			list := sched.NewSlabs()
			filler, err := sched.Build(fillerMethod(reg.Name), sched.WithSlabs(fs.schedConfig(), list),
				fs.Costs(), fs.buildParams())
			if err != nil {
				t.Fatalf("%s filler for %s p=%d m=%d: %v", fillerMethod(reg.Name), reg.Name, p, m, err)
			}
			if filler.NumOps() <= fresh.NumOps() {
				t.Fatalf("%s filler has %d ops, not more than %s's %d", filler.Method, filler.NumOps(),
					reg.Name, fresh.NumOps())
			}
			first := &filler.Ops[0][0]
			sched.Recycle(filler)
			got, err := reg.Build(sched.WithSlabs(s.schedConfig(), list), costs, params)
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
// traffic on the default registry: the first build allocates, and so does
// each method that needs a larger slab than any built before it, so at
// least 15 of the 18 builds reuse a slab. The race detector randomizes
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
