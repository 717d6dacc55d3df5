package main

import (
	"fmt"
	"strings"
)

// metricDef names a reported metric and fixes its unit and which direction
// is better. BENCHMARK.json lists
// the same names and units; TestMetricTablesMatchBenchmarkJSON keeps the two
// in step.
type metricDef struct{ Name, Unit, Better string }

// failedFrac is printed with the end-to-end metrics but stays out of the
// result line; see endToEnd.
var failedFrac = metricDef{"ops_failed_frac", "ratio", "lower"}

// endToEnd are the untraced run's metrics, as a user of the store sees them.
// ops_failed_frac is printed but stays out of the result line: on these
// fault-free workloads it is 0, and the result line carries only metrics
// that are never 0; ops_completed_frac (its complement) stands for it.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"ops_completed_frac", "ratio", "higher"},
	{"verified_frac", "ratio", "higher"},
	{"storage_norm", "bits/bit", "lower"},
	{"cpu_ms_per_kop", "ms", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// runtimeStages are the node-runtime metrics, reported once per runtime
// (live, netrun).
var runtimeStages = []metricDef{
	{"queue_us_p50", "us", "lower"},
	{"start_wait_us_p50", "us", "lower"},
	{"start_wait_us_p99", "us", "lower"},
	{"effect_us_p50", "us", "lower"},
	{"effect_us_p99", "us", "lower"},
	{"complete_us_p50", "us", "lower"},
	{"mailbox_dropped", "count", "lower"},
}

// perLayer are the traced run's metrics, one group per layer.
var perLayer = func() []metricDef {
	ds := []metricDef{
		{"consistency.observe_us_per_op", "us", "lower"},
		{"consistency.busy_frac", "ratio", "lower"},
		{"consistency.max_window_ops", "ops", "lower"},
	}
	for _, rt := range []string{"live", "netrun"} {
		for _, d := range runtimeStages {
			ds = append(ds, metricDef{rt + "." + d.Name, d.Unit, d.Better})
		}
	}
	return append(ds, []metricDef{
		{"transport.frames_per_op", "frames/op", "lower"},
		{"transport.frames_per_flush", "frames/flush", "higher"},
		{"transport.bytes_per_op", "bytes/op", "lower"},
		{"transport.dropped_frames", "count", "lower"},
		{"transport.frame_roundtrip_us", "us", "lower"},
		{"wire.encode_ns_per_frame", "ns", "lower"},
		{"wire.decode_ns_per_frame", "ns", "lower"},
		{"wire.allocs_per_frame", "allocs/frame", "lower"},
		{"erasure.encode_us_per_value", "us", "lower"},
		{"erasure.decode_us_per_value", "us", "lower"},
		{"erasure.busy_frac", "ratio", "lower"},
		{"store.max_server_bits", "bits", "lower"},
		{"store.bound_slack_bits", "bits", "lower"},
		{"workload.gen_us_per_op", "us", "lower"},
		{"workload.sync_points", "count", "lower"},
		{"telemetry.overhead_frac", "ratio", "lower"},
		{"telemetry.traced_ops_per_s", "ops/s", "higher"},
		{"telemetry.untraced_ops_per_s", "ops/s", "higher"},
	}...)
}()

// notRun says why a layer does no work on the workload, or "" when it does.
func notRun(w workload, name string) string {
	layer, _, _ := strings.Cut(name, ".")
	switch {
	case layer == "live" && w.Backend != "live":
		return fmt.Sprintf("%s runs on the net backend, not the live runtime", w.Name)
	case layer == "netrun" && w.Backend != "net":
		return fmt.Sprintf("%s runs on the live backend, not the net runtime", w.Name)
	case (layer == "transport" || layer == "wire") && w.Backend != "net":
		return fmt.Sprintf("%s has no network link: live nodes exchange messages in memory", w.Name)
	case layer == "erasure" && !strings.HasPrefix(w.Algorithm, "cas"):
		return fmt.Sprintf("%s replicates values; nothing is erasure-coded", w.Algorithm)
	}
	return ""
}

// assemble orders measured metrics by the table, fixes their units and
// directions, and fills every metric of a layer the workload does not run
// with 0 and a note.
func assemble(w workload, defs []metricDef, got map[string]metric) []metric {
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		m, ok := got[d.Name]
		if why := notRun(w, d.Name); why != "" {
			m = metric{Name: d.Name, Note: "0: " + why}
		} else if !ok {
			panic("perfbench: metric " + d.Name + " was not computed")
		}
		m.Unit, m.Better = d.Unit, d.Better
		out = append(out, m)
	}
	return out
}
