package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mv2j/internal/omb"
)

// minTimedOps is the floor on timed ops per run: the median of 21
// samples is the smallest that still has ten samples beyond it.
const minTimedOps = 21

// checkedIters caps the iterations per size of the checked run.
const checkedIters = 1

// warmupOps run after the checked run (itself a first pass over every
// step) and before the first timed op, in every measuring process.
const warmupOps = 1

// opResult is what one op returned: the virtual rows of every step and
// the host wall time each step took.
type opResult struct {
	Start    time.Time
	Rows     [][]omb.Result
	StepWall []time.Duration
	Wall     time.Duration
}

// decorate lets a caller attach recorders or change host-only knobs on
// a step's config before it runs; nil leaves the config as generated.
type decorate func(cfg *omb.Config)

// runOp executes every step of the workload once.
func runOp(w workload, dec decorate) (opResult, error) {
	res := opResult{Rows: make([][]omb.Result, len(w.Steps)), StepWall: make([]time.Duration, len(w.Steps))}
	res.Start = time.Now()
	for i, s := range w.Steps {
		cfg := s.Cfg
		if dec != nil {
			dec(&cfg)
		}
		t0 := time.Now()
		rows, err := omb.RunBenchmark(s.Bench, cfg)
		res.StepWall[i] = time.Since(t0)
		if err != nil {
			return res, fmt.Errorf("step %s: %w", s.Name, err)
		}
		res.Rows[i] = rows
	}
	res.Wall = time.Since(res.Start)
	return res, nil
}

// checkPlan verifies that every step returned exactly the planned rows.
func checkPlan(w workload, res opResult) error {
	for i, s := range w.Steps {
		want := s.sizes()
		if len(res.Rows[i]) != len(want) {
			return fmt.Errorf("step %s: %d rows, plan has %d", s.Name, len(res.Rows[i]), len(want))
		}
		for j, r := range res.Rows[i] {
			if r.Size != want[j] {
				return fmt.Errorf("step %s row %d: size %d, plan has %d", s.Name, j, r.Size, want[j])
			}
		}
	}
	return nil
}

// sameRows enforces the repo's determinism invariant: virtual rows are
// bit-identical from op to op for one config.
func sameRows(w workload, ref, got opResult) error {
	for i, s := range w.Steps {
		if len(ref.Rows[i]) != len(got.Rows[i]) {
			return fmt.Errorf("step %s: %d rows, first op had %d", s.Name, len(got.Rows[i]), len(ref.Rows[i]))
		}
		for j, a := range ref.Rows[i] {
			b := got.Rows[i][j]
			if a.Size != b.Size ||
				math.Float64bits(a.LatencyUs) != math.Float64bits(b.LatencyUs) ||
				math.Float64bits(a.MBps) != math.Float64bits(b.MBps) {
				return fmt.Errorf("step %s row %d: %+v differs from the first op's %+v", s.Name, j, b, a)
			}
		}
	}
	return nil
}

// virtUsPerMsg is the model's output for one op: the geometric mean
// over all rows of virtual microseconds per message.
func virtUsPerMsg(w workload, res opResult) (float64, error) {
	var per []float64
	for i, s := range w.Steps {
		for _, r := range res.Rows[i] {
			switch s.Rows {
			case rowLatency:
				per = append(per, r.LatencyUs)
			case rowBandwidth:
				per = append(per, ratio(float64(r.Size), r.MBps))
			case rowRate:
				per = append(per, ratio(1e6, r.MBps))
			}
		}
	}
	g, skipped := geomean(per)
	if skipped > 0 || g == 0 {
		return 0, fmt.Errorf("%d of %d virtual rows are not positive and finite", skipped, len(per))
	}
	return g, nil
}

// checkedRun executes every step once with payload validation on (the
// suites without a validation hook ignore the flag). It is untimed as a
// measurement but part of set-up.
func checkedRun(w workload) error {
	res, err := runOp(w, func(cfg *omb.Config) {
		// Elementwise verification costs virtual and host time per byte;
		// one iteration per size proves the payloads as well as 8000.
		cfg.Opts.Validate = true
		cfg.Opts.Iters = min(cfg.Opts.Iters, checkedIters)
		cfg.Opts.LargeIters = cfg.Opts.Iters
		cfg.Opts.Warmup = 0
	})
	if err != nil {
		return fmt.Errorf("checked run: %w", err)
	}
	if err := checkPlan(w, res); err != nil {
		return fmt.Errorf("checked run: %w", err)
	}
	return nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", fields[1], err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// timedRun is the measurement of one workload in this process.
type timedRun struct {
	OpWall    []float64 // seconds, one per timed op
	OpStart   []time.Time
	StepWall  [][]float64
	OpCPU     []float64
	AllocMB   float64 // per op
	Allocs    float64 // per op
	VirtUs    float64
	Attempted int
	Failed    int
	Failures  []string
	First     opResult // reference rows: the first timed op's
}

// timeOps runs the closed loop: one op at a time, a collection before
// each op outside the timed region, until both minOps ops and the
// duration are reached.
func timeOps(w workload, duration time.Duration, minOps int, dec decorate) timedRun {
	run := timedRun{StepWall: make([][]float64, len(w.Steps))}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	haveRef := false
	for start := time.Now(); run.Attempted < minOps || time.Since(start) < duration; {
		runtime.GC()
		cpu0 := cpuSeconds()
		res, err := runOp(w, dec)
		cpu := cpuSeconds() - cpu0
		run.Attempted++
		if err == nil {
			err = checkPlan(w, res)
		}
		if err == nil && haveRef {
			err = sameRows(w, run.First, res)
		}
		if err != nil {
			run.Failed++
			if len(run.Failures) < 5 {
				run.Failures = append(run.Failures, fmt.Sprintf("op %d: %v", run.Attempted, err))
			}
			continue
		}
		if !haveRef {
			run.First, haveRef = res, true
		}
		run.OpWall = append(run.OpWall, res.Wall.Seconds())
		run.OpStart = append(run.OpStart, res.Start)
		run.OpCPU = append(run.OpCPU, cpu)
		for i, d := range res.StepWall {
			run.StepWall[i] = append(run.StepWall[i], d.Seconds())
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(run.Attempted)
	run.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / n
	run.Allocs = float64(after.Mallocs-before.Mallocs) / n
	if haveRef {
		v, err := virtUsPerMsg(w, run.First)
		if err != nil {
			run.Failed++
			run.Failures = append(run.Failures, err.Error())
		}
		run.VirtUs = v
	}
	return run
}

// setUp is everything between process start and the first timed op:
// inputs from the seed, the checked run, the warm-up ops.
func setUp(name string, seed uint64, warmups int, checked bool) (workload, error) {
	w, err := buildWorkload(name, seed)
	if err != nil {
		return w, err
	}
	if checked {
		if err := checkedRun(w); err != nil {
			return w, err
		}
	}
	for i := 0; i < warmups; i++ {
		res, err := runOp(w, nil)
		if err == nil {
			err = checkPlan(w, res)
		}
		if err != nil {
			return w, fmt.Errorf("warm-up op %d: %w", i+1, err)
		}
	}
	return w, nil
}
