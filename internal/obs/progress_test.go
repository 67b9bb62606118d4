package obs

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// fakeClock steps a Progress deterministically past its render throttle.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) advance(d time.Duration) {
	c.t = c.t.Add(d)
}

func newTestProgress(w *strings.Builder, label string, total int) (*Progress, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p := NewProgress(w, label, total)
	p.now = clk.now
	p.start = clk.t
	p.last = time.Time{}
	return p, clk
}

func TestProgressLifecycle(t *testing.T) {
	var b strings.Builder
	p, clk := newTestProgress(&b, "sweep", 4)
	for i := 0; i < 4; i++ {
		clk.advance(time.Second)
		p.Emit(Event{Kind: CellStarted, Index: i, Total: 4})
		p.Emit(Event{Kind: CellFinished, Index: i, Total: 4, Duration: time.Second})
	}
	p.Done()
	out := b.String()
	if !strings.Contains(out, "sweep: 4/4 cells") {
		t.Errorf("missing completed live line: %q", out)
	}
	if !strings.Contains(out, "sweep: 4 cells in 4.0s (1.0 cells/s)\n") {
		t.Errorf("missing final summary: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("Done must end the line with a newline")
	}
	// Events after Done are ignored.
	mark := b.Len()
	p.Emit(Event{Kind: CellFinished})
	if b.Len() != mark {
		t.Error("renderer wrote after Done")
	}
}

func TestProgressAdoptsTotalFromEvents(t *testing.T) {
	var b strings.Builder
	p, clk := newTestProgress(&b, "tune", 0)
	clk.advance(time.Second)
	p.Emit(Event{Kind: CellFinished, Index: 0, Total: 12})
	if !strings.Contains(b.String(), "tune: 1/12 cells") {
		t.Errorf("total not adopted from event: %q", b.String())
	}
}

func TestProgressThrottle(t *testing.T) {
	var b strings.Builder
	p, clk := newTestProgress(&b, "x", 100)
	clk.advance(time.Second)
	p.Emit(Event{Kind: CellFinished})
	first := b.Len()
	// Within the throttle window, nothing new is rendered.
	clk.advance(time.Millisecond)
	p.Emit(Event{Kind: CellFinished})
	if b.Len() != first {
		t.Error("throttle did not suppress a rapid update")
	}
	// Past the window it renders again.
	clk.advance(time.Second)
	p.Emit(Event{Kind: CellFinished})
	if b.Len() == first {
		t.Error("renderer stuck after the throttle window passed")
	}
}

func TestProgressErrorsCounted(t *testing.T) {
	var b strings.Builder
	p, clk := newTestProgress(&b, "s", 2)
	clk.advance(time.Second)
	p.Emit(Event{Kind: CellFinished, Err: errors.New("boom")})
	p.Emit(Event{Kind: CellFinished})
	p.Done()
	if !strings.Contains(b.String(), "1 errors") {
		t.Errorf("error count missing from summary: %q", b.String())
	}
}

func TestProgressLineOnlyProducer(t *testing.T) {
	var b strings.Builder
	p, clk := newTestProgress(&b, "fleet", 0)
	clk.advance(time.Second)
	p.Line("t=5s  2 queued  1 running")
	p.Done()
	out := b.String()
	if !strings.Contains(out, "fleet: t=5s  2 queued  1 running") {
		t.Errorf("free-form line missing: %q", out)
	}
	if !strings.Contains(out, "fleet: done in") {
		t.Errorf("line-only summary should not count cells: %q", out)
	}
	if strings.Contains(out, "cells") {
		t.Errorf("line-only producer still reported cells: %q", out)
	}
}

func TestSinkFunc(t *testing.T) {
	var got []Event
	var s Sink = SinkFunc(func(e Event) { got = append(got, e) })
	s.Emit(Event{Kind: CellStarted, Label: "a"})
	s.Emit(Event{Kind: CellFinished, Label: "a"})
	if len(got) != 2 || got[0].Kind != CellStarted || got[1].Kind != CellFinished {
		t.Fatalf("SinkFunc dropped events: %+v", got)
	}
	if CellStarted.String() != "started" || CellFinished.String() != "finished" {
		t.Error("EventKind labels drifted")
	}
}
