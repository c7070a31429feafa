package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestQuantileAndTailPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 || mean(nil) != 0 || maxOf(nil) != 0 {
		t.Error("empty samples must report 0")
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("quantile reordered its input")
	}
	// The reported tail is the highest percentile with ten samples beyond it.
	for _, c := range []struct{ n, want int }{{1, 50}, {21, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if minTimedOps != 21 {
		t.Error("21 is the smallest sample whose median has ten samples beyond it")
	}
}

func TestGeomeanSkipsWhatIsNotAPositiveNumber(t *testing.T) {
	g, skipped := geomean([]float64{1, 100})
	if math.Abs(g-10) > 1e-12 || skipped != 0 {
		t.Errorf("geomean = %g skipped %d, want 10, 0", g, skipped)
	}
	if _, skipped := geomean([]float64{1, 0, math.Inf(1), math.NaN(), -1}); skipped != 4 {
		t.Errorf("skipped %d, want 4", skipped)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100, Count: 1, TotalNs: 100},
		// Two overlapping structural children cover [10,60]; one sticks out
		// past the parent and is clipped to [90,100].
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 50, Count: 1, TotalNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60, Count: 1, TotalNs: 30},
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 130, Count: 1, TotalNs: 40},
		// Aggregated calls under span 2 cover their total, not their extent.
		{ID: 5, Parent: 2, StartNs: 10, EndNs: 50, Count: 7, TotalNs: 25},
		{ID: 6, Parent: 2, StartNs: 12, EndNs: 48, Count: 3, TotalNs: 30},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 0, 3: 30, 4: 40, 5: 25, 6: 30}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestRankTracerAggregatesPerCallAndSize(t *testing.T) {
	tr := newTracer()
	parent := tr.begin(0, "rank-main", "bench", 1, 0)
	rt := tr.forRank(parent, 1, 0)
	for i := 0; i < 5; i++ {
		if err := rt.call("core", "Send", 64, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.call("core", "Send", 128, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	rt.flush()
	tr.end(parent)
	var nilTracer *rankTracer
	called := false
	if err := nilTracer.call("core", "Send", 1, func() error { called = true; return nil }); err != nil || !called {
		t.Error("a nil rankTracer must still make the call")
	}
	dir := t.TempDir()
	if err := tr.write(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d span lines, want rank-main + two call spans:\n%s", len(lines), data)
	}
	counts := map[int]int64{}
	for _, line := range lines {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if s.Name == "Send" {
			counts[s.Size] = s.Count
			if s.Parent != parent || s.Layer != "core" || s.EndNs < s.StartNs {
				t.Errorf("bad call span %+v", s)
			}
		}
	}
	if counts[64] != 5 || counts[128] != 1 {
		t.Errorf("call counts by size = %v, want 64:5 128:1", counts)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, w.Name, w.Why, workloadNames[i], workloadWhy[workloadNames[i]])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d + %d metrics, the code %d + %d", len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		got := file.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the code %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if strings.HasSuffix(d.Name, "wall_s") && d.Bound > 0.15 {
			t.Errorf("%s: a wall-time bound above 0.15 hides real regressions", d.Name)
		}
		seen[d.Name] = true
	}
	for i, d := range perLayer {
		got := file.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the code %+v", i, got, d)
		}
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	metricName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for name := range seen {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %v", name, metricName)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	if !seen["setup_s"] {
		t.Error("the contract requires a setup_s metric")
	}
	for _, bad := range []string{"", "a b", ".hidden", "ünicode", strings.Repeat("x", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name regexp accepts %q", bad)
		}
	}
}

func TestSeedDeterminesTheGeneratedConfigs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 42)
		c, _ := buildWorkload(name, 43)
		if len(a.Steps) == 0 || workloadWhy[name] == "" {
			t.Fatalf("%s: no steps or no why", name)
		}
		if describe(a) != describe(b) {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if describe(a) == describe(c) {
			t.Errorf("%s: seeds 42 and 43 generated the same inputs", name)
		}
		// Every seed keeps the row count of every step.
		for i := range a.Steps {
			if len(a.Steps[i].sizes()) != len(c.Steps[i].sizes()) {
				t.Errorf("%s step %s: %d rows at seed 42, %d at seed 43", name, a.Steps[i].Name,
					len(a.Steps[i].sizes()), len(c.Steps[i].sizes()))
			}
			if a.Steps[i].Slot < 1 || a.Steps[i].Slot > 4 {
				t.Errorf("%s step %s: slot %d outside omb.step_wall_s.1..4", name, a.Steps[i].Name, a.Steps[i].Slot)
			}
		}
	}
	if _, err := buildWorkload("no-such-workload", 1); err == nil {
		t.Error("an unknown workload must be an error")
	}
	w, _ := buildWorkload("short-jobs", 1)
	if len(w.Steps) != 15 {
		t.Errorf("short-jobs has %d worlds, want 15", len(w.Steps))
	}
	w, _ = buildWorkload("pingpong-small", 1)
	if n := len(w.Steps[0].sizes()); n != 11 {
		t.Errorf("pingpong-small sweeps %d sizes, want 1 B..1 KiB = 11", n)
	}
}

// describe renders the seed-dependent parts of a workload's inputs.
func describe(w workload) string {
	var b strings.Builder
	for _, s := range w.Steps {
		b.WriteString(s.Name + jsonString(s.Cfg.Opts) + jsonString(s.Cfg.Core.Intra) +
			jsonString(s.Cfg.Core.Inter) + jsonString(s.Cfg.Core.Faults))
	}
	return b.String()
}

func jsonString(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(data)
}

func TestReportRoundTripsAndResultLineHasExactlyTheContractKeys(t *testing.T) {
	rep := &report{
		Workload: "pingpong-small", Why: workloadWhy["pingpong-small"],
		Env:    environment{GitHead: "abc", GoVersion: "go1.x", NProc: 2, GOMAXPROCS: 2, Seed: 7},
		Result: result{Correct: true, Attempted: 21, Metrics: map[string]metricValue{}},
	}
	for i, d := range endToEnd {
		rep.set(endToEnd, d.Name, float64(i)+0.123456789012345)
	}
	if err := rep.complete(endToEnd); err != nil {
		t.Fatal(err)
	}
	delete(rep.Result.Metrics, "setup_s")
	if err := rep.complete(endToEnd); err == nil || !strings.Contains(err.Error(), "setup_s") {
		t.Errorf("a report without setup_s must be incomplete, got %v", err)
	}
	rep.set(endToEnd, "setup_s", 1.5)

	dir := t.TempDir()
	if err := rep.write(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "report-pingpong-small-e2e.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep, back) {
		t.Errorf("report changed in a JSON round trip:\n%+v\n%+v", *rep, back)
	}

	var line bytes.Buffer
	if err := rep.emit(&line); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line keys = %v", keys)
	}
	if strings.Count(line.String(), "\n") != 1 {
		t.Error("the result line must be one line")
	}
	var human bytes.Buffer
	rep.print(&human)
	for _, d := range endToEnd {
		if !strings.Contains(human.String(), d.Name) {
			t.Errorf("printed report lacks %s", d.Name)
		}
	}
	if !strings.Contains(human.String(), "failed_ops_share") {
		t.Error("printed report lacks failed_ops_share")
	}
}

func TestVerdict(t *testing.T) {
	if rel, pass := verdict(100, 109, 0.10); !pass || math.Abs(rel-0.09) > 1e-12 {
		t.Errorf("9 %% apart within a 10 %% bound: rel %g pass %v", rel, pass)
	}
	if _, pass := verdict(100, 88, 0.10); pass {
		t.Error("12 % apart must be UNRESOLVED at a 10 % bound")
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "coll-scale", "--seed", "9", "--seconds", "3", "--trace", "1"}, &bytes.Buffer{})
	if err != nil || o.Workload != "coll-scale" || o.Seed != 9 || o.Seconds != 3 || o.Trace != 1 {
		t.Errorf("parseFlags = %+v, %v", o, err)
	}
	for _, bad := range [][]string{{"--trace", "2"}, {"--seconds", "-1"}, {"stray"}, {"--no-such-flag"}} {
		if _, err := parseFlags(bad, &bytes.Buffer{}); err == nil {
			t.Errorf("parseFlags(%v) accepted", bad)
		}
	}
}

// TestSmoke drives every workload through both faces of the program,
// one op each: the generated configs run, the rows match the plan, every
// declared metric is measured, the spans are written.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	dir := t.TempDir()
	for _, name := range workloadNames {
		for _, traced := range []int{0, 1} {
			o := options{Workload: name, Seed: 5, Smoke: true, Trace: traced, Out: dir}
			rep, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, traced, err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
				t.Errorf("%s trace=%d: %+v %v", name, traced, rep.Result, rep.Failures)
			}
			defs := endToEnd
			if traced == 1 {
				defs = perLayer
			}
			if len(rep.Result.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, traced, len(rep.Result.Metrics), len(defs))
			}
			for _, d := range defs {
				if v := rep.Result.Metrics[d.Name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %g", name, d.Name, v)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "spans.jsonl")); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
