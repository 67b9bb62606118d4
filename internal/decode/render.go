package decode

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/jsonw"
)

// WriteJSON writes the report as indented JSON. The encoding is
// deterministic: identical searches produce byte-identical output, which
// is what the golden corpus diffs.
func (r *Report) WriteJSON(w io.Writer) error {
	return jsonw.Write(w, r)
}

// Summary renders the search accounting — scenario shape, objective, grid
// size, and the per-reason prune counts — as one line per fact.
func (r *Report) Summary() string {
	var b strings.Builder
	sc := r.Scenario
	attn := fmt.Sprintf("gqa k=%d", sc.Heads.KVHeads)
	if sc.Heads.MLA {
		attn = fmt.Sprintf("mla c=%d", sc.Heads.LatentDim)
	}
	fmt.Fprintf(&b, "model %s (%s) on %d x %s, context %d + %d tokens, %d sessions\n",
		sc.Model, attn, sc.GPUs, r.GPU, sc.ContextLen, sc.DecodeTokens, sc.Sessions)
	fmt.Fprintf(&b, "objective %s, budget %.1f GB per GPU\n", r.Objective, gb(r.BudgetBytes))
	fmt.Fprintf(&b, "grid %d shardings, evaluated %d\n", r.GridSize, r.Evaluated)
	for _, reason := range []string{PruneGeometry, PruneKVMemory} {
		if n := r.Pruned[reason]; n > 0 {
			fmt.Fprintf(&b, "pruned %d (%s)\n", n, reason)
		}
	}
	if r.Best != nil {
		fmt.Fprintf(&b, "best %s: %.2f ms/token, %.1f tokens/s\n",
			r.Best.Sharding, r.Best.SecondsPerToken*1e3, r.Best.TokensPerSecond)
	}
	return b.String()
}

// Table renders every evaluated sharding as an aligned ASCII table in
// stream order (ascending TPA).
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s per sharding\n", r.Objective)
	if len(r.Points) == 0 {
		b.WriteString("(no feasible shardings)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-5s %-5s %-12s %-12s %-12s %-12s %-10s %-10s %-10s\n",
		"kvp", "tpa", "ms/token", "p95 ms", "tokens/s", "ttft s", "kv GB", "comm ms", "compute ms")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-5d %-5d %-12.3f %-12.3f %-12.1f %-12.1f %-10.1f %-10.3f %-10.3f\n",
			p.Sharding.KVP, p.Sharding.TPA,
			p.SecondsPerToken*1e3, p.Latency.P95Seconds*1e3, p.TokensPerSecond,
			p.TTFTSeconds, gb(p.KVBytesPerDevice),
			p.Comm.TotalSeconds*1e3, p.ComputeSeconds*1e3)
	}
	return b.String()
}

func gb(bytes int64) float64 { return float64(bytes) / (1 << 30) }
