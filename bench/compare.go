package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one (metric × workload) pair.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict applies a bound to two sets of runs of one metric: worse is how far
// b's median moved in the bad direction as a share of a's, and a pair whose
// run-to-run spread is wider than the bound cannot be resolved either way.
func verdict(a, b metricResult, bound float64) (string, float64) {
	worse := ratio(b.Median-a.Median, a.Median)
	if a.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(a.Spread, b.Spread) > bound:
		return verdictUnresolved, worse
	case worse > bound:
		return verdictWorse, worse
	case worse < -bound:
		return verdictBetter, worse
	}
	return verdictWithin, worse
}

// compareFiles prints one row per (metric × workload) of two results files,
// a the parent and b the change, judged by BENCHMARK.json's bounds. It
// reports false when any pair is worse or b failed a larger share of its
// operations.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	var bench benchmarkFile
	var a, b resultsFile
	if err := readJSON(benchPath, &bench); err != nil {
		return false, err
	}
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	bounds := map[string]float64{}
	for _, m := range bench.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	ok := true
	fmt.Fprintf(w, "a: %s (%s, %d runs)\nb: %s (%s, %d runs)\n", aPath, a.Commit, a.Runs, bPath, b.Commit, b.Runs)
	fmt.Fprintf(w, "%-18s %-24s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "a median", "b median", "worse", "spread", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-18s missing from b\n", wa.Name)
			ok = false
			continue
		}
		for i, ma := range wa.EndToEnd {
			bound, known := bounds[ma.Name]
			if !known || i >= len(wb.EndToEnd) || wb.EndToEnd[i].Name != ma.Name {
				return false, fmt.Errorf("%s: metric %s is not in both files and BENCHMARK.json", wa.Name, ma.Name)
			}
			mb := wb.EndToEnd[i]
			v, worse := verdict(ma, mb, bound)
			fmt.Fprintf(w, "%-18s %-24s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wa.Name, ma.Name, ma.Median, mb.Median, 100*worse, 100*max(ma.Spread, mb.Spread), 100*bound, v)
			ok = ok && v != verdictWorse
		}
		shareA, shareB := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		status := "ok"
		if shareB > shareA {
			status, ok = "more operations failed", false
		}
		fmt.Fprintf(w, "%-18s %-24s %14d %14d %44s\n", wa.Name, "ops_failed", wa.Failed, wb.Failed, status)
		fmt.Fprintf(w, "%-18s %-24s %14d %14d\n", wa.Name, "ops_attempted", wa.Attempted, wb.Attempted)
	}
	return ok, nil
}
