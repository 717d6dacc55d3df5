package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a run to a few small batches.
var tiny = runOpts{Duration: time.Millisecond, BatchOps: 2000, SetupOpens: 3, MinBatches: 2}

// TestTinyRuns runs every workload untraced and traced on two seeds and
// checks that every named metric is emitted, finite and carries its unit,
// and that a metric reading 0 says why.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			for _, trace := range []bool{false, true} {
				rep := measure(w, seed, tiny, trace)
				if !rep.Correct {
					t.Fatalf("%s seed %d trace %t: %s", w.Name, seed, trace, rep.Error)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				checkMetrics(t, w.Name, defs, rep.Metrics)
				if rep.Attempted < 1 || rep.Failed != 0 {
					t.Errorf("%s: attempted %d, failed %d", w.Name, rep.Attempted, rep.Failed)
				}
				if len(rep.Spans) == 0 {
					t.Errorf("%s: no spans recorded", w.Name)
				}
			}
		}
	}
}

func checkMetrics(t *testing.T, name string, defs []metricDef, ms []metric) {
	t.Helper()
	if len(ms) != len(defs) {
		t.Fatalf("%s: %d metrics, want %d", name, len(ms), len(defs))
	}
	for i, d := range defs {
		m := ms[i]
		switch {
		case m.Name != d.Name || m.Unit != d.Unit:
			t.Errorf("%s: metric %d is %s [%s], want %s [%s]", name, i, m.Name, m.Unit, d.Name, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", name, m.Name, m.Value)
		case m.Note == "":
			t.Errorf("%s: %s has no note", name, m.Name)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables and
// BENCHMARK.json in step: same names, units and directions, same workloads.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the tables %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %s, want %d", strings.Join(names, ","), len(workloads))
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "live-abd-small", "--trace", "2"},
		{"--workload", "live-abd-small", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q, want 2 and no output", args, code, out.String())
		}
	}
}
