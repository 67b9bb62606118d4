package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Progress renders a single live status line ("\r"-overwritten, stderr by
// convention) from the event stream: completed cells, rate and ETA. It
// implements Sink, so it plugs directly into Session/tune sinks; fleet
// probes without cell events feed it free-form text through Line. Rendering is throttled so event storms don't flood
// slow terminals; Done always prints a final summary.
type Progress struct {
	mu      sync.Mutex
	w       io.Writer
	label   string
	start   time.Time
	minGap  time.Duration
	last    time.Time
	total   int
	done    int
	errs    int
	lastLen int
	closed  bool
	now     func() time.Time // test hook
}

// NewProgress returns a renderer writing to w. label prefixes every line;
// total is the expected cell count (0 when unknown — events carrying a
// Total fill it in).
func NewProgress(w io.Writer, label string, total int) *Progress {
	return &Progress{
		w:      w,
		label:  label,
		total:  total,
		minGap: 100 * time.Millisecond,
		now:    time.Now,
		start:  time.Now(),
	}
}

// Emit implements Sink.
func (p *Progress) Emit(e Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	if e.Total > p.total {
		p.total = e.Total
	}
	if e.Kind != CellFinished {
		return
	}
	p.done++
	if e.Err != nil {
		p.errs++
	}
	p.print(p.status(), false)
}

// Line renders an arbitrary status line under the same throttle, for
// producers that aren't cell-shaped (the fleet engine's probe stream).
func (p *Progress) Line(s string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.print(p.label+": "+s, false)
}

// Done prints the final summary and a newline, ending the live line. The
// renderer ignores events after Done.
func (p *Progress) Done() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	elapsed := p.now().Sub(p.start).Seconds()
	var line string
	if p.done == 0 && p.total == 0 {
		// A Line-only producer (e.g. the fleet probe) has no cell counts.
		line = fmt.Sprintf("%s: done in %.1fs", p.label, elapsed)
	} else {
		line = fmt.Sprintf("%s: %d cells in %.1fs", p.label, p.done, elapsed)
	}
	if elapsed > 0 && p.done > 0 {
		line += fmt.Sprintf(" (%.1f cells/s)", float64(p.done)/elapsed)
	}
	if p.errs > 0 {
		line += fmt.Sprintf(", %d errors", p.errs)
	}
	p.print(line, true)
	fmt.Fprintln(p.w)
}

// status composes the live line: "<label>: 8/12 cells  6.2/s  ETA 0.6s".
func (p *Progress) status() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d", p.label, p.done)
	if p.total > 0 {
		fmt.Fprintf(&b, "/%d", p.total)
	}
	b.WriteString(" cells")
	elapsed := p.now().Sub(p.start).Seconds()
	if elapsed > 0 && p.done > 0 {
		rate := float64(p.done) / elapsed
		fmt.Fprintf(&b, "  %.1f/s", rate)
		if p.total > p.done && rate > 0 {
			fmt.Fprintf(&b, "  ETA %.1fs", float64(p.total-p.done)/rate)
		}
	}
	return b.String()
}

// print overwrites the live line, padding with spaces so a shorter line
// fully erases its predecessor. force bypasses the throttle (final lines
// and run completion must always land).
func (p *Progress) print(line string, force bool) {
	now := p.now()
	if !force && now.Sub(p.last) < p.minGap && p.done != p.total {
		return
	}
	p.last = now
	pad := p.lastLen - len(line)
	p.lastLen = len(line)
	if pad > 0 {
		line += strings.Repeat(" ", pad)
	}
	fmt.Fprintf(p.w, "\r%s", line)
}
