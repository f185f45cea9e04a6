package experiments

import (
	"math"
	"testing"
)

// The experiment tests assert the qualitative shapes the paper reports
// (EXPERIMENTS.md: its introduction and "Figure index"), not absolute numbers.

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func tail(v []float64, n int) []float64 {
	if len(v) <= n {
		return v
	}
	return v[len(v)-n:]
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func findSeries(p Panel, label string) Series {
	for _, s := range p.Series {
		if s.Label == label {
			return s
		}
	}
	return Series{}
}

func TestFig2ShapesMILPBeatsFlux(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweep experiment")
	}
	res := Fig2(Opts{Seed: 1})
	if len(res.Panels) != 4 {
		t.Fatalf("panels = %d, want 4 (one per maxMigrations)", len(res.Panels))
	}
	for _, p := range res.Panels {
		flux := findSeries(p, "Flux")
		best := findSeries(p, "MILP 60 ms")
		if len(flux.Y) == 0 || len(best.Y) == 0 {
			t.Fatalf("%s: missing series", p.Title)
		}
		wins := 0
		for i := range flux.Y {
			if best.Y[i] <= flux.Y[i]+1e-9 {
				wins++
			}
		}
		if wins < len(flux.Y)-1 {
			t.Errorf("%s: MILP@60ms beat Flux only %d/%d times", p.Title, wins, len(flux.Y))
		}
		// More solver time never hurts much.
		fast := findSeries(p, "MILP 5 ms")
		if mean(best.Y) > mean(fast.Y)+1.0 {
			t.Errorf("%s: 60ms mean %.2f worse than 5ms mean %.2f", p.Title, mean(best.Y), mean(fast.Y))
		}
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig5IntegratedConverges(t *testing.T) {
	res := Fig5(Opts{Seed: 2})
	dist := res.Panels[0]
	for _, ol := range []string{"5OL", "1OL"} {
		integ := findSeries(dist, "INT ("+ol+")")
		non := findSeries(dist, "NON-INT ("+ol+")")
		// Early periods: integrated must balance faster.
		if mean(integ.Y[:4]) >= mean(non.Y[:4]) {
			t.Errorf("%s: INT early mean %.2f >= NON-INT %.2f", ol, mean(integ.Y[:4]), mean(non.Y[:4]))
		}
	}
	// Scale-in completes within a similar number of periods (within 2x).
	times := res.Panels[1]
	integ := findSeries(times, "Integrated")
	non := findSeries(times, "Non-Integrated")
	for i := range integ.Y {
		if integ.Y[i] > 2*non.Y[i]+2 {
			t.Errorf("integrated scale-in too slow: %v vs %v", integ.Y, non.Y)
		}
	}
}

func TestFig6MILPBeatsFluxAndPoTC(t *testing.T) {
	if testing.Short() {
		t.Skip("engine experiment")
	}
	res := Fig6(Opts{Seed: 3})
	p := res.Panels[0]
	milp := findSeries(p, "MILP")
	flux := findSeries(p, "Flux")
	potc := findSeries(p, "PoTC")
	// Steady state: skip the first third.
	n := len(milp.Y) / 3
	m, f, q := mean(milp.Y[n:]), mean(flux.Y[n:]), mean(potc.Y[n:])
	if m >= f {
		t.Errorf("MILP steady load distance %.2f >= Flux %.2f", m, f)
	}
	if m >= q {
		t.Errorf("MILP steady load distance %.2f >= PoTC %.2f", m, q)
	}
	t.Logf("steady-state load distance: MILP %.2f, Flux %.2f, PoTC %.2f", m, f, q)
}

func TestFig7MigrationsWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("engine experiment")
	}
	res := Fig7(Opts{Seed: 4})
	p := res.Panels[0]
	for _, label := range []string{"MILP", "Flux"} {
		s := findSeries(p, label)
		if maxOf(s.Y) > 13 {
			t.Errorf("%s migrated %v > 13 in a period", label, maxOf(s.Y))
		}
	}
}

func TestFig8And9QualityOverheadTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("engine experiment")
	}
	q := Fig8(Opts{Seed: 5})
	o := Fig9(Opts{Seed: 5})
	nolimitQ := findSeries(q.Panels[0], "No limit")
	tenQ := findSeries(q.Panels[0], "10 key groups")
	n := len(nolimitQ.Y) / 3
	if mean(nolimitQ.Y[n:]) > mean(tenQ.Y[n:])+0.5 {
		t.Errorf("unrestricted balance %.2f worse than 10-limit %.2f",
			mean(nolimitQ.Y[n:]), mean(tenQ.Y[n:]))
	}
	nolimitO := findSeries(o.Panels[0], "No limit")
	tenO := findSeries(o.Panels[0], "10 key groups")
	if nolimitO.Y[len(nolimitO.Y)-1] <= tenO.Y[len(tenO.Y)-1] {
		t.Errorf("unrestricted latency %.2f not above 10-limit %.2f",
			nolimitO.Y[len(nolimitO.Y)-1], tenO.Y[len(tenO.Y)-1])
	}
}

func TestFig10ALBICBeatsCOLA(t *testing.T) {
	if testing.Short() {
		t.Skip("collocation sweep experiment")
	}
	res := Fig10(Opts{Seed: 6})
	p := res.Panels[0]
	aCol := findSeries(p, "Collocate (ALBIC)")
	cCol := findSeries(p, "Collocate (COLA)")
	aDist := findSeries(p, "Load Dist. (ALBIC)")
	cDist := findSeries(p, "Load Dist. (COLA)")
	if mean(aCol.Y) < mean(cCol.Y)-2 {
		t.Errorf("ALBIC collocation %.1f below COLA %.1f", mean(aCol.Y), mean(cCol.Y))
	}
	if mean(aDist.Y) > mean(cDist.Y)+1 {
		t.Errorf("ALBIC load distance %.2f above COLA %.2f", mean(aDist.Y), mean(cDist.Y))
	}
	// Collocation grows with the obtainable maximum.
	if aCol.Y[len(aCol.Y)-1] < aCol.Y[0]+20 {
		t.Errorf("ALBIC collocation flat across max collocation sweep: %v", aCol.Y)
	}
}

func TestFig12ALBICConvergesCOLAMigratesHeavily(t *testing.T) {
	if testing.Short() {
		t.Skip("engine experiment")
	}
	res := Fig12(Opts{Seed: 7})
	col := res.Panels[0]
	migs := res.Panels[3]
	idx := res.Panels[2]

	aCol := findSeries(col, "ALBIC")
	cCol := findSeries(col, "COLA")
	if final := mean(tail(aCol.Y, 5)); final < 70 {
		t.Errorf("ALBIC collocation only reached %.1f", final)
	}
	if early := mean(cCol.Y[:5]); early < 70 {
		t.Errorf("COLA collocation starts at %.1f, want immediate optimum", early)
	}
	aMig := findSeries(migs, "ALBIC")
	cMig := findSeries(migs, "COLA")
	if maxOf(aMig.Y) > 10 {
		t.Errorf("ALBIC migrated %v > budget 10", maxOf(aMig.Y))
	}
	if mean(cMig.Y[:5]) < 3*mean(tail(aMig.Y, 20)) {
		t.Errorf("COLA early migrations %.1f not >> ALBIC %.1f", mean(cMig.Y[:5]), mean(tail(aMig.Y, 20)))
	}
	aIdx := findSeries(idx, "ALBIC")
	if final := mean(tail(aIdx.Y, 5)); final > 80 {
		t.Errorf("ALBIC load index only dropped to %.1f, want substantial saving", final)
	}
	t.Logf("ALBIC: collocation %.1f, load index %.1f; COLA early migrations %.1f",
		mean(tail(aCol.Y, 5)), mean(tail(findSeries(idx, "ALBIC").Y, 5)), mean(cMig.Y[:5]))
}

func TestFig13CollocationCeilingHalved(t *testing.T) {
	if testing.Short() {
		t.Skip("engine experiment")
	}
	res := Fig13(Opts{Seed: 8})
	aCol := findSeries(res.Panels[0], "ALBIC")
	final := mean(tail(aCol.Y, 5))
	if final < 25 || final > 75 {
		t.Errorf("Real Job 3 collocation ceiling should be roughly half; got %.1f", final)
	}
}

func TestFig14ALBICReachesCOLAReference(t *testing.T) {
	if testing.Short() {
		t.Skip("engine experiment")
	}
	res := Fig14(Opts{Seed: 9})
	p := res.Panels[0]
	aCol := findSeries(p, "Collocation (ALBIC)")
	ref := findSeries(p, "Collocation (COLA)")
	final := mean(tail(aCol.Y, 5))
	if final < ref.Y[0]-20 {
		t.Errorf("ALBIC collocation %.1f far below COLA reference %.1f", final, ref.Y[0])
	}
	t.Logf("ALBIC final collocation %.1f vs COLA reference %.1f", final, ref.Y[0])
}

func TestRegistryAndRender(t *testing.T) {
	names := Names()
	if len(names) != 14 {
		t.Fatalf("registry has %d experiments, want 13 figures + decay", len(names))
	}
	if names[0] != "fig2" || names[12] != "fig14" || names[13] != "decay" {
		t.Fatalf("order wrong: %v", names)
	}
}

func TestDecayOnlyALBICPreservesCollocation(t *testing.T) {
	if testing.Short() {
		t.Skip("engine experiment")
	}
	res := Decay(Opts{Seed: 10})
	p := res.Panels[0]
	albic := findSeries(p, "albic")
	milp := findSeries(p, "milp")
	flux := findSeries(p, "flux")
	aEnd := mean(tail(albic.Y, 5))
	mEnd := mean(tail(milp.Y, 5))
	fEnd := mean(tail(flux.Y, 5))
	if aEnd < 80 {
		t.Errorf("ALBIC let the COLA collocation decay to %.1f", aEnd)
	}
	if mEnd > aEnd-10 {
		t.Errorf("plain MILP maintenance kept collocation at %.1f (ALBIC %.1f); expected decay", mEnd, aEnd)
	}
	if fEnd > aEnd {
		t.Errorf("Flux maintenance kept collocation at %.1f above ALBIC %.1f", fEnd, aEnd)
	}
	t.Logf("final collocation: ALBIC %.1f, MILP %.1f, Flux %.1f", aEnd, mEnd, fEnd)
}
