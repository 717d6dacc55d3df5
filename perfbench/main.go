// Command perfbench is the repository's benchmark. It drives the sharded
// register store through its public entry points (shmem.Open,
// Store.RunMulti, Store.Close) on one named closed-loop workload and prints
// every metric by name with its unit, then one JSON result line:
//
//	go run . --workload live-abd-small --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// reports the per-layer metrics from a traced run. A run whose outputs fail
// a correctness gate (an online-checker violation, a quiescent shard,
// nothing verified, storage below the Theorem 5.1 floor) exits 1. README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// report is everything one run produced; the run record file holds it whole.
type report struct {
	Env       environment `json:"environment"`
	Correct   bool        `json:"correct"`
	Error     string      `json:"error,omitempty"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	// Metrics are the result line's metrics; Extra are printed only.
	Metrics []metric `json:"metrics"`
	Extra   []metric `json:"extra,omitempty"`
	Spans   []span   `json:"spans"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: live-abd-small, net-abd-small or live-casgc-4k")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "directory for the run record (environment, metric notes, spans); empty writes none")
	commit := fs.String("commit", "unknown", "source revision to record with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be >= 1 (got %d)", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1 (got %d)", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o := runOpts{Duration: time.Duration(*seconds) * time.Second, SetupWarmOpens: 100, SetupOpens: 1000, MinBatches: 5}
	rep := measure(w, *seed, o, *trace == 1)
	rep.Env = newEnvironment(w, *seed, *seconds, *trace == 1, *commit)
	rep.Env.OpsAttempted = rep.Attempted
	if *out != "" {
		if err := writeRecord(*out, rep); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if err := printReport(stdout, w, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.Correct {
		fmt.Fprintln(stderr, "perfbench: FAIL:", rep.Error)
		return 1
	}
	return 0
}

// measure runs the workload untraced or traced and collects its report. A
// failed run reports Correct false with the error and no metrics.
func measure(w workload, seed int64, o runOpts, trace bool) *report {
	rec := newRecorder()
	rep := &report{}
	var err error
	if trace {
		var tr *tracedRun
		tr, err = runTraced(w, seed, o, rec)
		if tr != nil {
			rep.Attempted, rep.Failed = tr.untraced.attempted(), tr.untraced.attempted()-tr.untraced.completed()
			for _, b := range tr.traced {
				rep.Attempted += b.Attempted
				rep.Failed += b.Attempted - b.Completed
			}
		}
		if err == nil {
			rep.Metrics = assemble(w, perLayer, tracedMetrics(w, tr))
		}
	} else {
		var run *e2eRun
		run, err = runE2E(w, seed, o, rec)
		if run != nil {
			rep.Attempted = run.t.attempted()
			rep.Failed = rep.Attempted - run.t.completed()
		}
		if err == nil {
			got := e2eMetrics(w, run)
			rep.Metrics = assemble(w, endToEnd, got)
			rep.Extra = assemble(w, []metricDef{failedFrac}, got)
		}
	}
	rep.Spans = rec.all()
	rep.Correct = err == nil
	if err != nil {
		rep.Error = err.Error()
	}
	return rep
}

// printReport writes the environment, every metric with its unit, direction
// and note, and finally the one-line JSON result.
func printReport(wr io.Writer, w workload, rep *report) error {
	e := rep.Env
	fmt.Fprintf(wr, "perfbench workload=%s backend=%s algorithm=%s seed=%d seconds=%d trace=%t\n",
		w.Name, w.Backend, w.Algorithm, e.Seed, e.Seconds, e.Trace)
	fmt.Fprintf(wr, "env nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s ops_attempted=%d\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.Commit, rep.Attempted)
	for _, m := range append(append([]metric(nil), rep.Metrics...), rep.Extra...) {
		fmt.Fprintf(wr, "%-32s %14.6g %-12s %-6s %s\n", m.Name, m.Value, m.Unit, m.Better, m.Note)
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]valueUnit{}}
	for _, m := range rep.Metrics {
		line.Metrics[m.Name] = valueUnit{m.Value, m.Unit}
	}
	js, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(wr, "%s\n", js)
	return err
}

// writeRecord saves the whole report, spans included, as
// <dir>/<workload>-seed<n>-trace<t>.json.
func writeRecord(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("run record: %w", err)
	}
	trace := 0
	if rep.Env.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.Env.Workload, rep.Env.Seed, trace))
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return fmt.Errorf("run record: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("run record: %w", err)
	}
	return nil
}
