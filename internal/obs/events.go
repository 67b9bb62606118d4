package obs

import (
	"fmt"
	"time"
)

// EventKind discriminates progress events.
type EventKind int

const (
	// CellStarted fires when a unit of work (a sweep cell, a tune
	// candidate, a fleet run) begins executing on a worker.
	CellStarted EventKind = iota
	// CellFinished fires when the unit completes, successfully or not.
	CellFinished
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case CellStarted:
		return "started"
	case CellFinished:
		return "finished"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one progress event. Producers (Ordered, the pool behind
// Session.Execute and tune.Search.Points, and decode.Search.Points) emit
// them to a pluggable Sink as cells run; only the fields meaningful for the
// Kind are set.
type Event struct {
	// Kind is the event kind.
	Kind EventKind
	// Label identifies the cell in human terms, e.g. "HelixPipe seq=131072 p=8".
	Label string
	// Index is the cell's position in submission order.
	Index int
	// Total is the number of cells in the run when known (0 otherwise).
	Total int
	// Worker is the worker-pool slot executing the cell.
	Worker int
	// Duration is the cell's wall clock (CellFinished only).
	Duration time.Duration
	// Err is the cell's terminal error, if any (CellFinished only).
	Err error
}

// Sink consumes progress events. Emit must be safe for concurrent use:
// worker pools deliver events from many goroutines.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }
