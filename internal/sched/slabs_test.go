package sched

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// emptySlabs empties the free list, so a test starts from no slab.
func emptySlabs() {
	slabs.Lock()
	defer slabs.Unlock()
	clear(slabs.free)
	slabs.free = slabs.free[:0]
}

// freeCaps returns the capacities of the free list's slabs, sorted.
func freeCaps() []int {
	slabs.Lock()
	defer slabs.Unlock()
	var caps []int
	for _, s := range slabs.free {
		caps = append(caps, cap(s))
	}
	slices.Sort(caps)
	return caps
}

// TestRecycleLeavesNoStaleHandle pins what Recycle does to a plan: a built
// plan gives its slab back once, and is spent, so a stale handle fails
// Validate instead of simulating whatever is built into the slab next;
// recycling it again and recycling a hand-built plan change nothing.
func TestRecycleLeavesNoStaleHandle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	costs, cfg := realCosts(t), testCfg(4, 8, 32)
	emptySlabs()
	plan, err := OneFOneB(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(plan); err != nil {
		t.Fatal(err)
	}
	Recycle(plan)
	if plan.Ops != nil || plan.validated || plan.recvSlots != nil || plan.msgBases != nil || plan.stashPeaks != nil {
		t.Fatalf("a recycled plan keeps its ops or validation memo: %d programs, validated %v",
			len(plan.Ops), plan.validated)
	}
	if err := Validate(plan); err == nil || !strings.Contains(err.Error(), "plan has 0 stage programs") {
		t.Fatalf("Validate of a recycled plan: %v, want the 0 stage programs error", err)
	}
	if n := len(freeCaps()); n != 1 {
		t.Fatalf("the list holds %d slabs after one recycle, want 1", n)
	}
	Recycle(plan)
	if n := len(freeCaps()); n != 1 {
		t.Fatalf("recycling the plan twice left %d slabs on the list, want 1", n)
	}

	handmade := &Plan{Stages: 1, Ops: [][]Op{{{Kind: KForward}}}}
	Recycle(handmade)
	Recycle(nil)
	if handmade.NumOps() != 1 || len(freeCaps()) != 1 {
		t.Fatalf("recycling a hand-built plan changed it or the list: %d ops, %d slabs",
			handmade.NumOps(), len(freeCaps()))
	}
}

// TestSlabsStayBounded pins the list's policy: it holds at most GOMAXPROCS
// slabs and keeps the largest when full; a build takes the smallest slab
// that fits; and a build that fits none drops the smallest, so the slabs
// kept alive never outnumber the builds in flight. A put at a lower
// GOMAXPROCS bounds the list there, keeping its largest slabs.
func TestSlabsStayBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	emptySlabs()
	for _, n := range []int{10, 30, 20} {
		putSlab(make([]Op, n))
	}
	if got := freeCaps(); !slices.Equal(got, []int{20, 30}) {
		t.Fatalf("a full list of two holds slabs of %v ops, want the largest two, [20 30]", got)
	}
	runtime.GOMAXPROCS(1)
	putSlab(make([]Op, 25))
	if got := freeCaps(); !slices.Equal(got, []int{30}) {
		t.Fatalf("a put at GOMAXPROCS 1 leaves slabs of %v ops, want the 30-op one", got)
	}
	runtime.GOMAXPROCS(2)
	putSlab(make([]Op, 20))
	if s := takeSlab(15); cap(s) != 20 {
		t.Fatalf("a 15-op build took a %d-op slab, want the 20-op one", cap(s))
	}
	if s := takeSlab(40); s != nil || len(freeCaps()) != 0 {
		t.Fatalf("a 40-op build took %d ops and left %v, want nothing taken and the 30-op slab dropped", cap(s), freeCaps())
	}
}

// TestRecycleDropsOverCeiling recycles a plan whose slab is above
// MaxPooledOps: the plan is spent and the list does not take its slab, so a
// plan built once near MaxMicroBatches does not stay resident; a slab of
// exactly MaxPooledOps ops is kept.
func TestRecycleDropsOverCeiling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	emptySlabs()
	for _, n := range []int{MaxPooledOps + 1, MaxPooledOps} {
		slab := make([]Op, n)
		p := &Plan{Stages: 1, Ops: [][]Op{slab[:1]}, slab: slab}
		Recycle(p)
		if p.Ops != nil || p.slab != nil {
			t.Fatalf("a recycled plan of a %d-op slab keeps its ops", n)
		}
	}
	if got := freeCaps(); !slices.Equal(got, []int{MaxPooledOps}) {
		t.Fatalf("the list holds slabs of %v ops, want [%d]", got, MaxPooledOps)
	}
}

// TestSlabsConcurrentBuilds builds and recycles plans of three methods at
// three micro-batch counts from four goroutines on the one list, as a
// sweep's workers do, and requires every plan to equal its build in fresh
// memory. Run it with -race to check the list's locking.
func TestSlabsConcurrentBuilds(t *testing.T) {
	costs := realCosts(t)
	builders := []func(Config, Costs) (*Plan, error){GPipe, ZB1P, Interleaved}
	emptySlabs() // the reference builds find no slab and keep what they allocate
	want := map[[2]int]*Plan{}
	for b, build := range builders {
		for _, m := range []int{4, 8, 12} {
			p, err := build(testCfg(4, m, 32), costs)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{b, m}] = p
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				b, m := (g+i)%len(builders), 4*(1+(g*i)%3)
				p, err := builders[b](testCfg(4, m, 32), costs)
				if err != nil {
					t.Error(err)
					return
				}
				if w := want[[2]int{b, m}]; p.Method != w.Method || !reflect.DeepEqual(p.Ops, w.Ops) {
					t.Errorf("goroutine %d build %d: %s m=%d differs from its fresh build", g, i, w.Method, m)
				}
				Recycle(p)
			}
		}()
	}
	wg.Wait()
}
