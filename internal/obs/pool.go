package obs

import (
	"iter"
	"runtime"
	"time"
)

// Ordered runs n cells on a bounded worker pool (workers wide; GOMAXPROCS
// when workers <= 0; never wider than n) and yields each cell's result in
// cell order as soon as it is available: the first result arrives while
// later cells still run. The semaphore doubles as the worker-id pool, so a
// cell holds one id for its whole run. A launch window of 4×workers ahead of
// the yield cursor keeps the pool full behind a slow head cell while capping
// how many finished results wait their turn: a 500-cell grid holds a bounded
// window, not five hundred.
// A cell's error is yielded with its result and never aborts the remaining
// cells. Breaking out of the iteration launches nothing further; in-flight
// cells finish into their buffered slots and are collected by the GC.
//
// A non-nil sink receives a CellStarted/CellFinished pair per cell, carrying
// label(i), the worker slot, the wall clock, the error and the cache-hit flag
// run returns with its result.
func Ordered[T any](n, workers int, sink Sink, label func(int) string,
	run func(int) (T, bool, error)) iter.Seq2[T, error] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	return func(yield func(T, error) bool) {
		type slot struct {
			v   T
			err error
		}
		results := make([]chan slot, n)
		for i := range results {
			results[i] = make(chan slot, 1)
		}
		sem := make(chan int, workers)
		for w := 0; w < workers; w++ {
			sem <- w
		}
		launch := func(i int) {
			go func() {
				w := <-sem
				defer func() { sem <- w }()
				start := time.Now()
				if sink != nil {
					sink.Emit(Event{Kind: CellStarted, Label: label(i), Index: i, Total: n, Worker: w})
				}
				v, hit, err := run(i)
				if sink != nil {
					sink.Emit(Event{Kind: CellFinished, Label: label(i), Index: i, Total: n, Worker: w,
						CacheHit: hit, Duration: time.Since(start), Err: err})
				}
				results[i] <- slot{v, err}
			}()
		}
		next := 0
		for ; next < n && next < 4*workers; next++ {
			launch(next)
		}
		for i := range results {
			res := <-results[i]
			if next < n {
				launch(next)
				next++
			}
			if !yield(res.v, res.err) {
				return
			}
		}
	}
}
