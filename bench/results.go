package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// resultsFile is what a set writes with -out. It holds no timestamps and
// only slices in a fixed order, so two files of the same commit and settings
// differ only where measurements do.
type resultsFile struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Platform   string  `json:"platform"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	// Scale is the factor on the workloads' fixed period counts; 0 means the
	// runs were time-based (Seconds).
	Scale         float64          `json:"scale"`
	Quick         bool             `json:"quick"`
	WarmupPeriods int              `json:"warmup_periods"`
	Workloads     []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string `json:"name"`
	Attempted int    `json:"ops_attempted"`
	Failed    int    `json:"ops_failed"`
	// MeasuredPeriods has one entry per untraced run, in seed order.
	MeasuredPeriods []int          `json:"measured_periods"`
	EndToEnd        []metricResult `json:"end_to_end"`
	PerLayer        []metricResult `json:"per_layer,omitempty"`
}

type metricResult struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Values has one entry per run, in seed order; Spread is the distance
	// between their quartiles as a share of Median.
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"`
}

func direction(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (go build inside a git checkout does; the driver's plain-file
// checkout does not).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// collect folds the outcomes of one workload's runs into per-metric rows.
func collect(defs []metricDef, outs []*outcome) []metricResult {
	rows := make([]metricResult, 0, len(defs))
	for _, d := range defs {
		row := metricResult{Name: d.name, Unit: d.unit, Better: direction(d.higher)}
		for _, o := range outs {
			if o.metrics != nil {
				row.Values = append(row.Values, o.metrics[d.name].v)
			}
		}
		row.Median, row.Spread = median(row.Values), spread(row.Values)
		rows = append(rows, row)
	}
	return rows
}

// runSet runs every workload runs times untraced, each run with the
// next seed, plus one traced run per workload when cfg.trace is set; prints
// one row per metric and writes the results file. It reports whether every
// operation passed its checks.
func runSet(ctx context.Context, w io.Writer, cfg runConfig, seed int64, runs int, out string) (bool, error) {
	file := resultsFile{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		Seed: seed, Runs: runs, Seconds: cfg.seconds, Scale: cfg.scale, Quick: cfg.quick,
		WarmupPeriods: warmupPeriods,
	}
	if cfg.scale > 0 || cfg.quick {
		file.Seconds = 0
	}
	ok := true
	for i := range workloads {
		wl := &workloads[i]
		res := workloadResult{Name: wl.name}
		untraced := cfg
		untraced.trace = false
		var outs []*outcome
		for r := 0; r < runs; r++ {
			if err := ctx.Err(); err != nil {
				return false, err // interrupted: the set is incomplete
			}
			o, err := runOnce(ctx, wl, seed+int64(r), untraced)
			if err != nil {
				return false, err
			}
			o.print(w)
			outs = append(outs, o)
			res.Attempted += o.attempted
			res.Failed += o.failed
			res.MeasuredPeriods = append(res.MeasuredPeriods, o.measured)
		}
		res.EndToEnd = collect(endToEnd, outs)
		if cfg.trace {
			o, err := runOnce(ctx, wl, seed, cfg)
			if err != nil {
				return false, err
			}
			o.print(w)
			res.Attempted += o.attempted
			res.Failed += o.failed
			res.PerLayer = collect(perLayer, []*outcome{o})
		}
		fmt.Fprintf(w, "%s: %d runs, %d operations attempted, %d failed\n", wl.name, runs, res.Attempted, res.Failed)
		for _, row := range res.EndToEnd {
			fmt.Fprintf(w, "  %-24s median %14.4f %-4s spread %5.1f%%\n", row.Name, row.Median, row.Unit, 100*row.Spread)
		}
		ok = ok && res.Failed == 0
		file.Workloads = append(file.Workloads, res)
	}
	if out == "" {
		return ok, nil
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return false, err
	}
	return ok, os.WriteFile(out, append(data, '\n'), 0o644)
}
