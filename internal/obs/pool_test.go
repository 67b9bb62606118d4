package obs

import "testing"

// TestOrderedBoundsWorkersByCells runs one cell with a worker count far past
// any pool a process could hold: the pool is sized by the cells, not by the
// request, so the cell runs on worker 0 and nothing is allocated per worker.
func TestOrderedBoundsWorkersByCells(t *testing.T) {
	var workers []int
	sink := SinkFunc(func(e Event) {
		if e.Kind == CellStarted {
			workers = append(workers, e.Worker)
		}
	})
	var got []int
	for v, err := range Ordered(1, 1<<62, sink, func(int) string { return "cell" },
		func(i int) (int, bool, error) { return i + 7, false, nil }) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("results %v, want [7]", got)
	}
	if len(workers) != 1 || workers[0] != 0 {
		t.Errorf("cell ran on workers %v, want [0]", workers)
	}
	for range Ordered(0, 1<<62, nil, nil, func(int) (int, bool, error) { return 0, false, nil }) {
		t.Fatal("an empty grid yielded a cell")
	}
}
