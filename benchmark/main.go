// Command benchmark is the repo's benchmark: six workloads over the
// OMB-J suites, seven end-to-end metrics measured untraced, and a traced
// run that assigns host and virtual time to the layers (jvm, jni,
// mpjbuf, core, nativempi, fabric, ...) from outside, by timing calls
// into their public functions and reading their public counters.
//
// The driver face runs one workload and prints one JSON line:
//
//	benchmark --workload pingpong-small --seed 1 --seconds 10 --trace 0
//
// (measured in fresh child processes whose samples are pooled). Without
// --workload every workload runs and a table is printed; --selfcheck does that twice and
// compares the two against the bounds; --smoke runs one op of each.
// See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// processes is how many fresh child processes one run measures in. One
// process's median op time differs from the next's by two to three times
// what the scatter of its own ops predicts (where the heap lands decides
// cache and TLB behaviour for the process's whole life), so ops pooled
// from several short-lived processes give a steadier median than the same
// number of ops from one. Each child also sets up once, which gives
// setup_s its samples.
const processes = 5

type options struct {
	Workload  string
	Seed      uint64
	Seconds   float64
	Trace     int
	Selfcheck bool
	Smoke     bool
	Child     bool
	Out       string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.Workload, "workload", "", "run this workload in this process and print the result line; empty runs all six, each in a child process")
	fs.Uint64Var(&o.Seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.Seconds, "seconds", 10, "how long the timed ops run, over all child processes (never fewer than 25 ops)")
	fs.IntVar(&o.Trace, "trace", 0, "1 = the traced run: per-layer metrics and out/spans.jsonl")
	fs.BoolVar(&o.Selfcheck, "selfcheck", false, "run everything twice and compare the two runs against the bounds")
	fs.BoolVar(&o.Smoke, "smoke", false, "one op per workload, no warm-up, no checked run")
	fs.BoolVar(&o.Child, "child", false, "measure in this process and print the samples as JSON (what a run's child processes do)")
	fs.StringVar(&o.Out, "out", "benchmark/out", "directory for reports and spans.jsonl")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.Trace != 0 && o.Trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", o.Trace)
	}
	if o.Seconds < 0 || o.Seconds > 170 {
		return o, fmt.Errorf("--seconds %g: want 0..170", o.Seconds)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procsFor(o.Workload))
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, stdout, stderr io.Writer) error {
	switch {
	case o.Child:
		m, err := measureHere(o)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(m)
	case o.Workload != "":
		rep, err := runWorkload(o)
		if err != nil {
			return err
		}
		rep.print(stderr)
		if err := rep.write(o.Out); err != nil {
			return err
		}
		if err := rep.emit(stdout); err != nil {
			return err
		}
		if !rep.Result.Correct {
			return fmt.Errorf("%s: %d of %d ops failed", o.Workload, rep.Result.Failed, rep.Result.Attempted)
		}
		return nil
	case o.Selfcheck:
		return selfcheck(o, stdout, stderr)
	default:
		_, err := runAll(o, stdout, stderr)
		return err
	}
}

// measurement is what one process measured: its set-up and its timed ops.
type measurement struct {
	SetupS    float64   `json:"setup_s"`
	OpWall    []float64 `json:"op_wall_s"`
	OpCPU     []float64 `json:"op_cpu_s"`
	AllocMB   float64   `json:"alloc_mb"` // total over Attempted ops
	Allocs    float64   `json:"allocs"`
	VirtUs    float64   `json:"virt_us_per_msg"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
}

// measureHere sets the workload up and runs the timed ops in this
// process: o.Seconds of them, and never fewer than its share of the 21.
func measureHere(o options) (measurement, error) {
	var m measurement
	minOps, duration := (minTimedOps+processes-1)/processes, time.Duration(o.Seconds*float64(time.Second))
	warmups, checked := warmupOps, true
	if o.Smoke {
		minOps, duration, warmups, checked = 1, 0, 0, false
	}
	start := time.Now()
	w, err := setUp(o.Workload, o.Seed, warmups, checked)
	if err != nil {
		return m, err
	}
	m.SetupS = time.Since(start).Seconds()
	run := timeOps(w, duration, minOps, nil)
	if m.PeakRSSMB, err = peakRSSMB(); err != nil {
		return m, err
	}
	m.OpWall, m.OpCPU = run.OpWall, run.OpCPU
	m.AllocMB, m.Allocs = run.AllocMB*float64(run.Attempted), run.Allocs*float64(run.Attempted)
	m.VirtUs = run.VirtUs
	m.Attempted, m.Failed, m.Failures = run.Attempted, run.Failed, run.Failures
	return m, nil
}

// measureInChildren runs the measurement in fresh child processes, one
// after the other, each for its share of the run's seconds.
func measureInChildren(o options) ([]measurement, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []measurement
	for i := 0; i < processes; i++ {
		cmd := exec.Command(self, "--child", "--workload", o.Workload, "--seed", fmt.Sprint(o.Seed),
			"--seconds", fmt.Sprint(o.Seconds/processes))
		cmd.Stderr = os.Stderr
		data, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("measuring child %d: %w", i+1, err)
		}
		var m measurement
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("measuring child %d printed %q: %w", i+1, data, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// runWorkload measures one workload: traced in this process, untraced
// in child processes whose samples are pooled.
func runWorkload(o options) (*report, error) {
	rep := &report{
		Workload: o.Workload, Why: workloadWhy[o.Workload], Traced: o.Trace == 1,
		Env:    currentEnvironment(o.Seed),
		Result: result{Metrics: map[string]metricValue{}},
	}
	if o.Trace == 1 {
		return rep, runTraced(o, rep)
	}
	var ms []measurement
	if o.Smoke {
		m, err := measureHere(o)
		if err != nil {
			return nil, err
		}
		ms = []measurement{m}
	} else {
		var err error
		if ms, err = measureInChildren(o); err != nil {
			return nil, err
		}
	}
	var setups, rss, opCPU []float64
	allocMB, allocs := 0.0, 0.0
	for i, m := range ms {
		setups, rss = append(setups, m.SetupS), append(rss, m.PeakRSSMB)
		rep.OpWallSamples = append(rep.OpWallSamples, m.OpWall...)
		opCPU = append(opCPU, m.OpCPU...)
		allocMB, allocs = allocMB+m.AllocMB, allocs+m.Allocs
		rep.Result.Attempted, rep.Result.Failed = rep.Result.Attempted+m.Attempted, rep.Result.Failed+m.Failed
		rep.Failures = append(rep.Failures, m.Failures...)
		// One seed, one model: every process must compute the same figure.
		if math.Float64bits(m.VirtUs) != math.Float64bits(ms[0].VirtUs) {
			rep.Result.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("process %d: virt_us_per_msg %v, process 1 had %v", i+1, m.VirtUs, ms[0].VirtUs))
		}
	}
	if len(rep.OpWallSamples) == 0 {
		return nil, fmt.Errorf("%s: no op succeeded: %s", o.Workload, strings.Join(rep.Failures, "; "))
	}
	attempted := float64(rep.Result.Attempted)
	rep.set(endToEnd, "op_wall_s", median(rep.OpWallSamples))
	rep.set(endToEnd, "op_cpu_s", mean(opCPU))
	rep.set(endToEnd, "alloc_mb_per_op", allocMB/attempted)
	rep.set(endToEnd, "allocs_per_op", allocs/attempted)
	rep.set(endToEnd, "peak_rss_mb", median(rss))
	rep.set(endToEnd, "virt_us_per_msg", ms[0].VirtUs)
	rep.set(endToEnd, "setup_s", median(setups))
	rep.Result.Correct = rep.Result.Failed == 0
	rep.Samples = len(rep.OpWallSamples)
	rep.OpWallP25, rep.OpWallP75 = quantile(rep.OpWallSamples, 0.25), quantile(rep.OpWallSamples, 0.75)
	rep.TailPercentile = tailPercentile(rep.Samples)
	rep.OpWallTail = quantile(rep.OpWallSamples, float64(rep.TailPercentile)/100)
	rep.FailedOpsShare = ratio(float64(rep.Result.Failed), attempted)
	rep.SetupSamples = setups
	return rep, rep.complete(endToEnd)
}

// runChild runs one workload in a re-exec'd child and parses the result
// line, the last line of its standard output.
func runChild(o options, name string, stderr io.Writer) (result, error) {
	var res result
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(o.Seed), "--seconds", fmt.Sprint(o.Seconds),
		"--trace", fmt.Sprint(o.Trace), "--out", o.Out}
	if o.Smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	data, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", name, runErr)
		}
		return res, fmt.Errorf("%s: result line %q: %w", name, lines[len(lines)-1], err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", name, runErr)
	}
	return res, nil
}

// runAll runs the six workloads, each in its own process, and prints
// one table of every metric by name with its unit.
func runAll(o options, stdout, stderr io.Writer) (map[string]result, error) {
	all := map[string]result{}
	var firstErr error
	for _, name := range workloadNames {
		res, err := runChild(o, name, stderr)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		all[name] = res
	}
	defs := endToEnd
	if o.Trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "%-38s %-6s", "metric", "unit")
	for _, name := range workloadNames {
		fmt.Fprintf(stdout, " %14s", name)
	}
	fmt.Fprintln(stdout)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-38s %-6s", d.Name, d.Unit)
		for _, name := range workloadNames {
			fmt.Fprintf(stdout, " %14.6g", all[name].Metrics[d.Name].Value)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-38s %-6s", "failed_ops_share", "ratio")
	for _, name := range workloadNames {
		fmt.Fprintf(stdout, " %14.6g", ratio(float64(all[name].Failed), float64(all[name].Attempted)))
	}
	fmt.Fprintln(stdout)
	return all, firstErr
}

// verdict compares two values of one metric of one commit against the
// metric's bound: the benchmark resolves the metric only if two runs of
// the same code agree within it.
func verdict(a, b, bound float64) (rel float64, pass bool) {
	rel = ratio(b-a, a)
	if rel < 0 {
		rel = -rel
	}
	return rel, rel <= bound
}

// selfcheck runs the whole benchmark twice and prints, per workload and
// end-to-end metric, both values, their relative difference and
// PASS or UNRESOLVED against the bound.
func selfcheck(o options, stdout, stderr io.Writer) error {
	o.Trace = 0
	first, err := runAll(o, stdout, stderr)
	if err != nil {
		return err
	}
	second, err := runAll(o, stdout, stderr)
	if err != nil {
		return err
	}
	unresolved := 0
	fmt.Fprintf(stdout, "\n%-16s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "run 1", "run 2", "diff", "bound", "verdict")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			a, b := first[name].Metrics[d.Name].Value, second[name].Metrics[d.Name].Value
			rel, pass := verdict(a, b, d.Bound)
			word := "PASS"
			if !pass {
				word = "UNRESOLVED"
				unresolved++
			}
			fmt.Fprintf(stdout, "%-16s %-18s %14.6g %14.6g %8.2f%% %6.1f%%  %s\n", name, d.Name, a, b, 100*rel, 100*d.Bound, word)
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("selfcheck: %d workload x metric pairs differ by more than their bound between two runs of the same code", unresolved)
	}
	return nil
}
