package main

// Host-speed calibration. The benchmark runs on shared virtual machines
// whose speed drifts with the neighbours' load in two ways. Every
// instruction gets slower: the same requests took up to 45% more CPU time
// from one minute to the next. And the hypervisor takes the processors away
// for a while (steal time): wall time grows while CPU time does not.
//
// A fixed kernel that belongs to the benchmark, not the library, runs
// between requests, off the clock, and its median time follows the first
// kind of drift; the machine's own steal counter measures the second.
// Every end-to-end CPU time is reported multiplied by calibNominalMS over
// the kernel's median time in the measuring process, every wall-clock time
// by that and by one minus the share of the machine's processor time stolen
// while it measured, and every rate divided by the wall-clock factor. The
// raw values are printed on their own line.
//
// The kernel is kept from coupling to the library: its memory is mapped
// outside the Go heap, so it neither raises the GC's heap target nor counts
// as the library's resident memory; every sample first finishes the GC
// cycle the requests left running and runs the kernel a few times untimed,
// so the timed run finds the same caches whatever the requests touched.

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// calibNominalMS is the kernel time the reported times are scaled to,
	// about what the kernel takes on the 2-vCPU machine the baseline was
	// recorded on.
	calibNominalMS = 3.5
	// calibEvery is the least request time between two kernel samples.
	// A sample costs about 25 ms, so the calibration adds about 5%.
	calibEvery = 500 * time.Millisecond
	// calibWarmRuns is how many untimed kernel runs precede a timed one.
	calibWarmRuns = 5
	// calibMinSamples is the fewest samples a process takes.
	calibMinSamples = 8
)

const (
	calibSlots = 1 << 19 // one random cycle of uint32 links: 2 MiB
	calibSteps = 60000   // links each worker follows
	calibVals  = 1 << 16 // floats each worker streams over twice: 512 KiB
	calibKeys  = 1 << 13 // integers each worker shell-sorts: 64 KiB
)

// calibrator owns the kernel's memory, one anonymous mapping, and samples
// the kernel between requests.
type calibrator struct {
	mapped []byte
	next   []uint32 // shared by the workers, read-only
	vals   [][]float64
	keys   [][]uint64
	sums   []uint64

	samples []float64     // kernel milliseconds
	since   time.Duration // request time since the last sample
	spent   time.Duration // wall time of all sampling, GC included
}

// newCalibrator maps and fills the kernel's memory, one set of arrays per
// GOMAXPROCS worker. Close unmaps it.
func newCalibrator() (*calibrator, error) {
	workers := runtime.GOMAXPROCS(0)
	size := 4*calibSlots + workers*8*(calibVals+calibKeys)
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration kernel: mmap %d bytes: %w", size, err)
	}
	base := unsafe.Pointer(unsafe.SliceData(mem))
	c := &calibrator{mapped: mem, next: unsafe.Slice((*uint32)(base), calibSlots), sums: make([]uint64, workers)}
	// Sattolo's shuffle of the identity: one cycle through every slot.
	r := rand.New(rand.NewPCG(1, 2))
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	for i := calibSlots - 1; i > 0; i-- {
		j := r.IntN(i)
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	off := uintptr(4 * calibSlots)
	for range workers {
		vals := unsafe.Slice((*float64)(unsafe.Add(base, off)), calibVals)
		off += 8 * calibVals
		keys := unsafe.Slice((*uint64)(unsafe.Add(base, off)), calibKeys)
		off += 8 * calibKeys
		for i := range vals {
			vals[i] = r.Float64()
		}
		clear(keys) // touch every page, so the whole mapping is resident from here on
		c.vals, c.keys = append(c.vals, vals), append(c.keys, keys)
	}
	return c, nil
}

// Close unmaps the kernel's memory.
func (c *calibrator) Close() error { return syscall.Munmap(c.mapped) }

// residentMB is the size of the kernel's memory in MiB, all of it resident.
func (c *calibrator) residentMB() float64 { return float64(len(c.mapped)) / (1 << 20) }

// kernel runs the fixed work on GOMAXPROCS goroutines, as the library's
// pools would: a dependent pointer chase through the shared cycle, a
// streaming read-modify-write pass and an integer shell sort. Its results
// land in c.sums, so the compiler cannot drop the work.
func (c *calibrator) kernel() {
	var wg sync.WaitGroup
	for w := range c.sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := uint32(w * calibSlots / len(c.sums))
			for range calibSteps {
				p = c.next[p]
			}
			vals, s := c.vals[w], 0.0
			for range 2 {
				for i := range vals {
					vals[i] = vals[i]*0.999 + 0.001
					s += vals[i]
				}
			}
			keys, x := c.keys[w], uint64(p)+1
			for i := range keys {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				keys[i] = x
			}
			for gap := len(keys) / 2; gap > 0; gap /= 2 {
				for i := gap; i < len(keys); i++ {
					v, j := keys[i], i
					for ; j >= gap && keys[j-gap] > v; j -= gap {
						keys[j] = keys[j-gap]
					}
					keys[j] = v
				}
			}
			c.sums[w] = uint64(s) + keys[len(keys)/2]
		}()
	}
	wg.Wait()
}

// sample finishes any GC cycle the requests left running, so the kernel
// does not share the processors with it, and runs the kernel calibWarmRuns
// times untimed before timing one run. Right after a request the first run
// is about twice as slow and the next few still slower, as the kernel's
// memory displaces the request's in the caches; by the sixth run the time
// has settled to that of back-to-back runs.
func (c *calibrator) sample() {
	t0 := time.Now()
	runtime.GC()
	for range calibWarmRuns {
		c.kernel()
	}
	t1 := time.Now()
	c.kernel()
	c.samples = append(c.samples, ms(time.Since(t1)))
	c.spent += time.Since(t0)
}

// after accounts one request's time and samples the kernel once at least
// calibEvery of request time has passed since the last sample.
func (c *calibrator) after(request time.Duration) {
	c.since += request
	if c.since >= calibEvery {
		c.since = 0
		c.sample()
	}
}

// topUp samples until there are calibMinSamples, for processes whose
// requests were too few or too short to be sampled between.
func (c *calibrator) topUp() {
	for len(c.samples) < calibMinSamples {
		c.sample()
	}
}

// ms is the median kernel time.
func (c *calibrator) ms() float64 { return median(c.samples) }

// cpuTicks reads the machine's processor time from /proc/stat, in clock
// ticks summed over its processors: the time the hypervisor ran something
// else while a processor had work (steal), and all time. Both are 0 where
// the file cannot be read.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the share of processor time stolen over a window.
type stealMeter struct{ steal, total uint64 }

func newStealMeter() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := cpuTicks()
	if t <= m.total || s < m.steal {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// How each end-to-end metric moves with the host's speed. Allocation and
// resident memory do not.
var (
	wallMetrics = []string{"setup_s", "req_p50_ms", "req_p95_ms", "first_row_p50_ms"}
	rateMetrics = []string{"req_per_s", "cells_per_s"}
	cpuMetrics  = []string{"cpu_ms_per_req"}
)

// calibrated returns a measuring child's end-to-end metrics at the nominal
// host speed.
func calibrated(c childResult) map[string]float64 {
	out := maps.Clone(c.Metrics)
	for _, k := range wallMetrics {
		out[k] *= c.wallFactor()
	}
	for _, k := range rateMetrics {
		out[k] /= c.wallFactor()
	}
	for _, k := range cpuMetrics {
		out[k] *= calibNominalMS / c.KernelMS
	}
	return out
}

// wallFactor scales a child's wall-clock times to the nominal host speed.
func (c childResult) wallFactor() float64 { return calibNominalMS / c.KernelMS * (1 - c.Steal) }
