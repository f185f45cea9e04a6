package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
)

// collocationWorkload builds the Section 5.3 synthetic setup: operators
// chained in pairs, x% of the upstream key groups communicating One-To-One
// with their matching downstream group (the "maximum obtainable
// collocation" control), the rest spreading evenly (Full Partitioning).
// Pairs start collocated on an even allocation; the experiment then
// measures whether the optimizers PRESERVE collocation while load balancing
// under per-round load jitter.
func collocationWorkload(spec clusterSpec, maxCol float64, rng *rand.Rand) *core.Snapshot {
	perOp := spec.groups / spec.ops
	loads := make([]float64, spec.groups)
	cur := make([]int, spec.groups)
	base := 60.0 / float64(spec.groups/spec.nodes)
	for k := range loads {
		loads[k] = base * (1 + (rng.Float64()*0.10 - 0.05))
	}
	// Pair-aligned even allocation: chain c's upstream kg j and downstream
	// kg j share node (c*perOp + j) mod nodes.
	chains := spec.ops / 2
	for c := 0; c < chains; c++ {
		for j := 0; j < perOp; j++ {
			node := (c*perOp + j) % spec.nodes
			cur[(2*c)*perOp+j] = node
			cur[(2*c+1)*perOp+j] = node
		}
	}
	s := synthSnapshot(spec, loads, cur)
	// Communication: the first maxCol% of each chain's upstream groups are
	// One-To-One with their matching downstream group; the remaining groups
	// contribute no collocatable traffic — that is what caps the obtainable
	// collocation at maxCol% of the key groups.
	oneToOne := int(float64(perOp) * maxCol / 100)
	const rate = 10.0
	var comm core.CommBuilder
	comm.Reset(spec.groups)
	for c := 0; c < chains; c++ {
		upBase := (2 * c) * perOp
		downBase := (2*c + 1) * perOp
		for j := 0; j < oneToOne; j++ {
			comm.Add(upBase+j, downBase+j, rate)
		}
	}
	s.Comm = comm.Build()
	return s
}

// scaledCollocation expresses the snapshot's traffic-weighted collocation
// factor on the figure's axis: the share of ALL key groups collocated with
// their partner, which is what "max obtainable collocation = x" caps.
func scaledCollocation(s *core.Snapshot, spec clusterSpec, maxCol float64) float64 {
	return s.CollocationFactor() * maxCol / 100
}

// jitterLoads adjusts 20% of the nodes' loads by a random factor in
// [-2%, +2%] (Section 5.3).
func jitterLoads(s *core.Snapshot, rng *rand.Rand) {
	shifted := rng.Perm(s.NumNodes)[:max(1, s.NumNodes/5)]
	for _, node := range shifted {
		factor := 1 + (rng.Float64()*0.04 - 0.02)
		for k := range s.Groups {
			if s.Groups[k].Node == node {
				s.Groups[k].Load *= factor
			}
		}
	}
}

// colRun runs one optimizer over the jittered workload and returns the mean
// load distance and collocation factor over the last third of the rounds.
func colRun(spec clusterSpec, maxCol float64, bal core.Balancer, rounds int, seed int64) (dist, col float64) {
	rng := rand.New(rand.NewSource(seed))
	s := collocationWorkload(spec, maxCol, rng)
	s.MaxMigrations = 20
	var dists, cols []float64
	for r := 0; r < rounds; r++ {
		jitterLoads(s, rng)
		plan, err := bal.Plan(context.Background(), s)
		if err != nil {
			panic(fmt.Sprintf("fig10: %v", err))
		}
		for k, node := range plan.GroupNode {
			s.Groups[k].Node = node
		}
		dists = append(dists, s.LoadDistance())
		cols = append(cols, scaledCollocation(s, spec, maxCol))
	}
	tail := rounds / 3
	if tail == 0 {
		tail = 1
	}
	for _, v := range dists[len(dists)-tail:] {
		dist += v
	}
	for _, v := range cols[len(cols)-tail:] {
		col += v
	}
	return dist / float64(tail), col / float64(tail)
}

func newALBIC(seed int64) *core.ALBIC {
	return &core.ALBIC{TimeLimit: 25 * time.Millisecond, Seed: seed}
}

// Fig10 reproduces Figure 10: load distance and collocation versus the
// maximum obtainable collocation (0-100), ALBIC vs COLA, on 40 nodes / 800
// key groups / 20 operators with maxMigrations = 20.
func Fig10(opt Opts) *Result {
	spec := clusterSpec{40, 800, 20}
	rounds := 12
	step := 25.0
	if opt.Full {
		rounds, step = 30, 10
	}
	var xs []float64
	albicDist := Series{Label: "Load Dist. (ALBIC)"}
	albicCol := Series{Label: "Collocate (ALBIC)"}
	colaDist := Series{Label: "Load Dist. (COLA)"}
	colaCol := Series{Label: "Collocate (COLA)"}
	for maxCol := 0.0; maxCol <= 100; maxCol += step {
		xs = append(xs, maxCol)
		d, c := colRun(spec, maxCol, newALBIC(opt.Seed), rounds, opt.Seed+int64(maxCol))
		albicDist.X, albicDist.Y = xs, append(albicDist.Y, d)
		albicCol.X, albicCol.Y = xs, append(albicCol.Y, c)
		d, c = colRun(spec, maxCol, &baseline.COLA{Seed: opt.Seed}, rounds, opt.Seed+int64(maxCol))
		colaDist.X, colaDist.Y = xs, append(colaDist.Y, d)
		colaCol.X, colaCol.Y = xs, append(colaCol.Y, c)
	}
	return &Result{
		Name:  "fig10",
		Title: "Load balance and collocation vs max obtainable collocation (synthetic)",
		Panels: []Panel{{
			Title: "ALBIC vs COLA", XLabel: "max collocation", YLabel: "percentage",
			Series: []Series{albicDist, albicCol, colaDist, colaCol},
		}},
	}
}

// Fig11 reproduces Figure 11: the same metrics at max collocation 50 across
// the three cluster configurations.
func Fig11(opt Opts) *Result {
	specs := []clusterSpec{{20, 400, 10}, {40, 800, 20}, {60, 1200, 30}}
	rounds := 12
	if opt.Full {
		rounds = 30
	}
	albicDist := Series{Label: "Load Dist. (ALBIC)"}
	albicCol := Series{Label: "Collocate (ALBIC)"}
	colaDist := Series{Label: "Load Dist. (COLA)"}
	colaCol := Series{Label: "Collocate (COLA)"}
	var xs []float64
	for i, spec := range specs {
		xs = append(xs, float64(spec.nodes))
		d, c := colRun(spec, 50, newALBIC(opt.Seed), rounds, opt.Seed+int64(i))
		albicDist.X, albicDist.Y = xs, append(albicDist.Y, d)
		albicCol.X, albicCol.Y = xs, append(albicCol.Y, c)
		d, c = colRun(spec, 50, &baseline.COLA{Seed: opt.Seed}, rounds, opt.Seed+int64(i))
		colaDist.X, colaDist.Y = xs, append(colaDist.Y, d)
		colaCol.X, colaCol.Y = xs, append(colaCol.Y, c)
	}
	return &Result{
		Name:  "fig11",
		Title: "Load balance and collocation across cluster configurations (max collocation 50)",
		Panels: []Panel{{
			Title: "ALBIC vs COLA", XLabel: "nodes", YLabel: "percentage",
			Series: []Series{albicDist, albicCol, colaDist, colaCol},
		}},
	}
}
