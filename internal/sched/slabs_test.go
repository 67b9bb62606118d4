package sched

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestRecycleLeavesNoStaleHandle pins what Recycle does to a plan: a plan
// built on a free list gives its slab back once, and is spent, so a stale
// handle fails Validate instead of simulating whatever is built into the
// slab next; recycling it again, recycling a plan built without a list and
// recycling a hand-built plan change nothing.
func TestRecycleLeavesNoStaleHandle(t *testing.T) {
	costs, cfg := realCosts(t), testCfg(4, 8, 32)
	list := NewSlabs()
	plan, err := OneFOneB(WithSlabs(cfg, list), costs)
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
	if len(list.free) != 1 {
		t.Fatalf("the list holds %d slabs after one recycle, want 1", len(list.free))
	}
	Recycle(plan)
	if len(list.free) != 1 {
		t.Fatalf("recycling the plan twice left %d slabs on the list, want 1", len(list.free))
	}

	fresh, err := OneFOneB(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	n := fresh.NumOps()
	Recycle(fresh)
	handmade := &Plan{Stages: 1, Ops: [][]Op{{{Kind: KForward}}}}
	Recycle(handmade)
	Recycle(nil)
	if fresh.NumOps() != n || handmade.NumOps() != 1 || len(list.free) != 1 {
		t.Fatalf("recycling plans built without a list changed them or the list: %d of %d ops, %d hand-built, %d slabs",
			fresh.NumOps(), n, handmade.NumOps(), len(list.free))
	}
	if err := Validate(fresh); err != nil {
		t.Fatalf("a plan built without a list no longer validates after Recycle: %v", err)
	}
}

// TestSlabsStayBounded pins the list's policy: it holds at most GOMAXPROCS
// slabs and keeps the largest when full; a build takes the smallest slab
// that fits; and a build that fits none drops the smallest, so the slabs a
// call keeps alive never outnumber its builds in flight. A list bounded
// again at a lower GOMAXPROCS, as GetSlabs does, keeps its largest slabs.
func TestSlabsStayBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	l := NewSlabs()
	for _, n := range []int{10, 30, 20} {
		l.put(make([]Op, n))
	}
	caps := func() (out []int) {
		for _, s := range l.free {
			out = append(out, cap(s))
		}
		return out
	}
	if got := caps(); len(got) != 2 || got[0]+got[1] != 50 {
		t.Fatalf("a full list of two holds slabs of %v ops, want the largest two, 30 and 20", got)
	}
	l.bound(1)
	if got := caps(); len(got) != 1 || got[0] != 30 || cap(l.free) != 1 {
		t.Fatalf("a list bounded at one holds slabs of %v ops (room for %d), want the 30-op one", got, cap(l.free))
	}
	l.bound(2)
	l.put(make([]Op, 20))
	if s := l.take(15); cap(s) != 20 {
		t.Fatalf("a 15-op build took a %d-op slab, want the 20-op one", cap(s))
	}
	if s := l.take(40); s != nil || len(l.free) != 0 {
		t.Fatalf("a 40-op build took %d ops and left %v, want nothing taken and the 30-op slab dropped", cap(s), caps())
	}
}

// TestPutSlabsDropsOverCeiling returns a list holding a slab above
// MaxPooledOps to the pool: the list keeps its other slabs and no longer
// holds that one, so a plan built once near MaxMicroBatches does not stay
// resident on a pooled list.
func TestPutSlabsDropsOverCeiling(t *testing.T) {
	l := NewSlabs()
	l.free = append(l.free[:0:0], make([]Op, 64), make([]Op, MaxPooledOps+1), make([]Op, MaxPooledOps))
	PutSlabs(l)
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) != 2 || cap(l.free[0]) != 64 || cap(l.free[1]) != MaxPooledOps {
		var caps []int
		for _, s := range l.free {
			caps = append(caps, cap(s))
		}
		t.Fatalf("a returned list holds slabs of %v ops, want [64 %d]", caps, MaxPooledOps)
	}
}

// TestSlabsConcurrentBuilds builds and recycles plans of three methods at
// three micro-batch counts from four goroutines on one list, as a sweep's
// workers do, and requires every plan to equal its build in fresh memory.
// Run it with -race to check the list's locking.
func TestSlabsConcurrentBuilds(t *testing.T) {
	costs := realCosts(t)
	builders := []func(Config, Costs) (*Plan, error){GPipe, ZB1P, Interleaved}
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
	list := NewSlabs()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				b, m := (g+i)%len(builders), 4*(1+(g*i)%3)
				p, err := builders[b](WithSlabs(testCfg(4, m, 32), list), costs)
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
