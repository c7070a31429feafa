package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one metric of BENCHMARK.json. Bound is the relative
// worsening that counts as a regression (end-to-end metrics only).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the simulator sees. They always
// come from the untraced run. failed_ops_share is printed beside them
// but travels in the result line's attempted/failed fields: it is 0 on
// every healthy run, and a relative bound on 0 means nothing.
var endToEnd = []metricDef{
	{"op_wall_s", "s", "lower", 0.15},
	{"op_cpu_s", "s", "lower", 0.15},
	{"alloc_mb_per_op", "MB", "lower", 0.02},
	{"allocs_per_op", "count", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"virt_us_per_msg", "us/msg", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment is recorded with every report: a number without the
// machine and commit it came from cannot be compared with anything.
type environment struct {
	GitHead    string `json:"git_head"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"engine_workers"`
	Seed       uint64 `json:"seed"`
}

func currentEnvironment(seed uint64) environment {
	head := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		head = strings.TrimSpace(string(out))
	}
	return environment{
		GitHead:    head,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    0,
		Seed:       seed,
	}
}

// report is the full record of one workload's run, written to the out
// directory; the result line is its machine-readable summary.
type report struct {
	Workload string      `json:"workload"`
	Why      string      `json:"why"`
	Traced   bool        `json:"traced"`
	Env      environment `json:"env"`
	Result   result      `json:"result"`
	// Samples is the number of timed ops behind op_wall_s; P25/P75 and
	// Tail (the highest percentile with ten samples beyond it) describe
	// their distribution.
	Samples        int       `json:"samples"`
	OpWallP25      float64   `json:"op_wall_s_p25"`
	OpWallP75      float64   `json:"op_wall_s_p75"`
	TailPercentile int       `json:"tail_percentile"`
	OpWallTail     float64   `json:"op_wall_s_tail"`
	FailedOpsShare float64   `json:"failed_ops_share"`
	SetupSamples   []float64 `json:"setup_s_samples"`
	OpWallSamples  []float64 `json:"op_wall_s_samples"`
	Failures       []string  `json:"failures,omitempty"`
}

func (r *report) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Result.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// complete reports the declared metrics the report does not carry.
func (r *report) complete(defs []metricDef) error {
	var missing []string
	for _, d := range defs {
		if _, ok := r.Result.Metrics[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return nil
}

func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	kind := "e2e"
	if r.Traced {
		kind = "traced"
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("report-%s-%s.json", r.Workload, kind)), append(data, '\n'), 0o644)
}

// print writes every metric by name with its unit.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "# %s  seed=%d  traced=%v  git=%s  %s  nproc=%d  GOMAXPROCS=%d  EngineWorkers=%d\n",
		r.Workload, r.Env.Seed, r.Traced, r.Env.GitHead, r.Env.GoVersion, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.Workers)
	names := make([]string, 0, len(r.Result.Metrics))
	for name := range r.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Result.Metrics[name]
		fmt.Fprintf(w, "%-40s %18.9g %s\n", name, m.Value, m.Unit)
	}
	if !r.Traced {
		fmt.Fprintf(w, "%-40s %18.9g %s\n", "failed_ops_share", r.FailedOpsShare, "ratio")
		fmt.Fprintf(w, "# op_wall_s: %d samples, p25 %.4f, p75 %.4f, p%d %.4f; setup_s samples %v\n",
			r.Samples, r.OpWallP25, r.OpWallP75, r.TailPercentile, r.OpWallTail, r.SetupSamples)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
}

// emit prints the result line: one JSON object, last on standard output.
func (r *report) emit(w io.Writer) error {
	line, err := json.Marshal(r.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
