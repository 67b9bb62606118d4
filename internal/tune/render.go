package tune

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Summary renders the search accounting — grid size, evaluated points, and
// the "why pruned" count per constraint — as one line per fact.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model %s on %s, budget %.1f GB per GPU\n",
		r.Model, r.Cluster, gb(r.MemoryBudgetBytes))
	fmt.Fprintf(&b, "grid %d points, evaluated %d, cost-model evaluations %d\n",
		r.GridSize, r.Evaluated, r.CostModelEvals)
	for _, reason := range []string{PruneGeometry, PruneMemory, PruneBuild, PruneSim, PrunePlacement} {
		if n := r.Pruned[reason]; n > 0 {
			fmt.Fprintf(&b, "pruned %d (%s)\n", n, reason)
		}
	}
	if r.StoppedEarly {
		b.WriteString("stopped early: budget target met\n")
	}
	return b.String()
}

// BestTable renders the best-throughput pick per scenario (sequence length
// or variable-length workload) as an aligned ASCII table.
func (r *Result) BestTable() string {
	return pointTable("best configuration per scenario", r.Best)
}

// FrontierTable renders the throughput-versus-peak-memory Pareto frontier
// as an aligned ASCII table, ascending in peak memory.
func (r *Result) FrontierTable() string {
	return pointTable("throughput vs peak-memory Pareto frontier", r.Frontier)
}

func pointTable(title string, points []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", title)
	if len(points) == 0 {
		b.WriteString("(no feasible points)\n")
		return b.String()
	}
	placed := false
	for _, p := range points {
		if p.Placement != "" {
			placed = true
		}
	}
	fmt.Fprintf(&b, "%-22s %-14s %-4s %-4s %-3s %-12s %-10s %-10s",
		"method", "scenario", "pp", "m", "b", "tokens/s", "bubble %", "peak GB")
	if placed {
		fmt.Fprintf(&b, " %-10s", "placement")
	}
	b.WriteByte('\n')
	for _, p := range points {
		scenario := fmt.Sprintf("seq=%d", p.SeqLen)
		if p.Workload != "" {
			scenario = p.Workload
			if p.Order != "" {
				scenario += "/" + p.Order
			}
		}
		fmt.Fprintf(&b, "%-22s %-14s %-4d %-4d %-3d %-12.0f %-10.1f %-10.1f",
			p.Method, scenario, p.Stages, p.MicroBatches, p.MicroBatchSize,
			p.TokensPerSecond, p.BubbleFraction*100, gb(p.PeakBytes))
		if placed {
			fmt.Fprintf(&b, " %-10s", p.Placement)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func gb(bytes int64) float64 { return float64(bytes) / (1 << 30) }

// CSVHeader returns the column names of Point.CSVRow.
func CSVHeader() []string {
	return []string{
		"method", "workload", "order", "seq_len", "stages", "micro_batches", "micro_batch_size",
		"placement", "placement_devices", "pad_fraction",
		"tokens_per_second", "seconds_per_token", "iteration_seconds", "bubble_fraction",
		"peak_bytes",
	}
}

// CSVRow renders the point as one CSV row matching CSVHeader. The placement
// columns are empty without a cluster topology, pad_fraction on fixed-length
// candidates.
func (p Point) CSVRow() []string {
	var devices []string
	for _, d := range p.PlacementDevices {
		devices = append(devices, fmt.Sprintf("%d", d))
	}
	padFraction := ""
	if p.PadFraction > 0 {
		padFraction = fmt.Sprintf("%g", p.PadFraction)
	}
	return []string{
		string(p.Method), p.Workload, p.Order,
		fmt.Sprintf("%d", p.SeqLen), fmt.Sprintf("%d", p.Stages),
		fmt.Sprintf("%d", p.MicroBatches), fmt.Sprintf("%d", p.MicroBatchSize),
		p.Placement, strings.Join(devices, ";"), padFraction,
		fmt.Sprintf("%g", p.TokensPerSecond), fmt.Sprintf("%g", p.SecondsPerToken),
		fmt.Sprintf("%g", p.IterationSeconds),
		fmt.Sprintf("%g", p.BubbleFraction),
		fmt.Sprintf("%d", p.PeakBytes),
	}
}

// WriteCSV writes a header plus one row per point.
func WriteCSV(w io.Writer, points []Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader()); err != nil {
		return err
	}
	for _, p := range points {
		if err := cw.Write(p.CSVRow()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
