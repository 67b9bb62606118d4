package fleet

// This file keeps the admission step exactly as it stood before the queued
// jobs were held in admission order, one queue per demand: every pass copies
// the queue, stable-sorts the copy into the policy's order and scans it from
// the head. It is the reference oracle of TestScheduleMatchesReference. Only
// the function names and the two reads of the queue differ from the
// original, which read the one queue slice the engine no longer keeps; the
// reference reads the queued jobs through queuedJobs.

import (
	"fmt"
	"sort"
)

// refSchedule admits every job the policy allows at the current state, looping
// until nothing further can start.
func (e *engine) refSchedule(t float64) error {
	for {
		if len(e.queuedJobs()) == 0 {
			return nil
		}
		ordered := e.refOrderedQueue()
		started := false
		for idx, st := range ordered {
			devs, ok := e.a.carve(e.policy.Carve, st.job.Demand)
			if ok {
				if err := e.start(st, devs, t); err != nil {
					return err
				}
				started = true
				break
			}
			if idx == 0 && e.policy.Preempt {
				if victims, ok := e.preemptionPlan(st); ok {
					for _, v := range victims {
						e.preempt(v, t)
					}
					devs, ok := e.a.carve(e.policy.Carve, st.job.Demand)
					if !ok {
						return fmt.Errorf("fleet: preemption freed too few devices for job %s (engine bug)", st.job.ID)
					}
					if err := e.start(st, devs, t); err != nil {
						return err
					}
					started = true
					break
				}
			}
			if !e.policy.Backfill {
				break // head-of-line blocking: only the head may start
			}
		}
		if !started {
			return nil
		}
	}
}

// refOrderedQueue returns the queue in the policy's admission order.
func (e *engine) refOrderedQueue() []*jobState {
	q := append([]*jobState(nil), e.queuedJobs()...)
	switch e.policy.Order {
	case OrderPriority:
		sort.SliceStable(q, func(a, b int) bool {
			if q[a].job.Priority != q[b].job.Priority {
				return q[a].job.Priority > q[b].job.Priority
			}
			if q[a].job.ArrivalSec != q[b].job.ArrivalSec {
				return q[a].job.ArrivalSec < q[b].job.ArrivalSec
			}
			return q[a].seq < q[b].seq
		})
	default: // arrival order
		sort.SliceStable(q, func(a, b int) bool {
			if q[a].job.ArrivalSec != q[b].job.ArrivalSec {
				return q[a].job.ArrivalSec < q[b].job.ArrivalSec
			}
			return q[a].seq < q[b].seq
		})
	}
	return q
}

// queuedJobs returns every queued job, demand queue by demand queue.
func (e *engine) queuedJobs() []*jobState {
	var q []*jobState
	for _, d := range e.demands {
		q = append(q, e.queues[d]...)
	}
	return q
}
