// Package experiments reproduces every figure of the paper's evaluation
// (Section 5, Figures 2-14). Each FigN function returns a Result holding
// the same series the paper plots; cmd/albic-bench renders them as text
// tables and bench_test.go wraps them as benchmarks.
//
// Scale notes: the paper's CPLEX budgets of 5-60 s map to 5-60 ms here
// (documented in EXPERIMENTS.md); cluster/key-group counts are faithful for
// the optimizer experiments and reduced by default for the engine
// experiments (Opts.Full restores paper scale).
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
)

// Opts controls experiment scale.
type Opts struct {
	// Seed drives all randomness.
	Seed int64
	// Full runs paper-scale configurations (slower); the default is a
	// reduced configuration that preserves every qualitative shape.
	Full bool
}

// Series is one plotted line.
type Series struct {
	Label string
	X, Y  []float64
}

// Panel is one subplot.
type Panel struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Result is one reproduced figure.
type Result struct {
	Name   string
	Title  string
	Panels []Panel
	// Notes records scale substitutions or measurement details.
	Notes string
}

// Render formats the result as aligned text tables.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.Name, r.Title)
	if r.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Notes)
	}
	for _, p := range r.Panels {
		fmt.Fprintf(&b, "\n-- %s (y: %s) --\n", p.Title, p.YLabel)
		if len(p.Series) == 0 {
			continue
		}
		// Header: x label then one column per series.
		fmt.Fprintf(&b, "%12s", p.XLabel)
		for _, s := range p.Series {
			fmt.Fprintf(&b, " %14s", s.Label)
		}
		b.WriteByte('\n')
		n := 0
		for _, s := range p.Series {
			if len(s.X) > n {
				n = len(s.X)
			}
		}
		for i := 0; i < n; i++ {
			x := ""
			for _, s := range p.Series {
				if i < len(s.X) {
					x = trimFloat(s.X[i])
					break
				}
			}
			fmt.Fprintf(&b, "%12s", x)
			for _, s := range p.Series {
				if i < len(s.Y) {
					fmt.Fprintf(&b, " %14s", trimFloat(s.Y[i]))
				} else {
					fmt.Fprintf(&b, " %14s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// RenderCSV formats one panel per CSV block: a header row with the x label
// and series labels, then one row per x value.
func (r *Result) RenderCSV() string {
	var b strings.Builder
	for pi, p := range r.Panels {
		fmt.Fprintf(&b, "# %s / %s (panel %d: %s)\n", r.Name, r.Title, pi, p.Title)
		b.WriteString(csvEscape(p.XLabel))
		for _, s := range p.Series {
			b.WriteByte(',')
			b.WriteString(csvEscape(s.Label))
		}
		b.WriteByte('\n')
		n := 0
		for _, s := range p.Series {
			if len(s.X) > n {
				n = len(s.X)
			}
		}
		for i := 0; i < n; i++ {
			wrote := false
			for _, s := range p.Series {
				if i < len(s.X) {
					fmt.Fprintf(&b, "%g", s.X[i])
					wrote = true
					break
				}
			}
			if !wrote {
				b.WriteString("0")
			}
			for _, s := range p.Series {
				b.WriteByte(',')
				if i < len(s.Y) {
					fmt.Fprintf(&b, "%g", s.Y[i])
				}
			}
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// clusterSpec is one of the paper's synthetic cluster configurations
// (Section 5.1): nodes, key groups, operators.
type clusterSpec struct {
	nodes, groups, ops int
}

// synthLoads builds the Section 5.1 synthetic load distribution: key groups
// evenly allocated, each key-group load set to the per-group mean adjusted
// by a random ±5%, then 20% of the nodes shifted by ±varies/2 (half down,
// half up).
func synthLoads(spec clusterSpec, varies float64, meanNodeLoad float64, rng *rand.Rand) (loads []float64, cur []int) {
	perNode := spec.groups / spec.nodes
	loads = make([]float64, spec.groups)
	cur = make([]int, spec.groups)
	base := meanNodeLoad / float64(perNode)
	for k := range loads {
		cur[k] = k % spec.nodes
		loads[k] = base * (1 + (rng.Float64()*0.10 - 0.05))
	}
	// Shift 20% of the nodes: half get -varies/2, half +varies/2 (in
	// percentage points of node load), applied by scaling the loads of the
	// node's key groups.
	shifted := rng.Perm(spec.nodes)[:max(2, spec.nodes/5)]
	for i, node := range shifted {
		delta := varies / 2
		if i%2 == 0 {
			delta = -delta
		}
		nodeLoad := 0.0
		for k := range loads {
			if cur[k] == node {
				nodeLoad += loads[k]
			}
		}
		if nodeLoad <= 0 {
			continue
		}
		factor := (nodeLoad + delta) / nodeLoad
		if factor < 0.05 {
			factor = 0.05
		}
		for k := range loads {
			if cur[k] == node {
				loads[k] *= factor
			}
		}
	}
	return loads, cur
}

// synthSnapshot wraps synthetic loads in a core.Snapshot with ops assigned
// round-robin over the groups (groups/ops per operator), without
// communication; callers that want a pattern set Comm.
func synthSnapshot(spec clusterSpec, loads []float64, cur []int) *core.Snapshot {
	s := &core.Snapshot{
		NumNodes: spec.nodes,
		Groups:   make([]core.GroupStat, spec.groups),
		Ops:      make([]core.OpStat, spec.ops),
	}
	perOp := spec.groups / spec.ops
	for k := range s.Groups {
		op := k / perOp
		if op >= spec.ops {
			op = spec.ops - 1
		}
		s.Groups[k] = core.GroupStat{Op: op, Node: cur[k], Load: loads[k], StateSize: 100}
		s.Ops[op].Groups = append(s.Ops[op].Groups, k)
	}
	// Chain ops pairwise: op 2i -> op 2i+1 (used by the collocation
	// experiments; harmless otherwise).
	for op := 0; op+1 < spec.ops; op += 2 {
		s.Ops[op].Downstream = []int{op + 1}
	}
	return s
}
