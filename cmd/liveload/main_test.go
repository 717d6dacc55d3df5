package main

import (
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

// TestSmoke runs the client-count sweep end to end on each backend — the
// live runtime, and real loopback sockets on net — and checks the
// acceptance shape: one result row per client count reporting throughput
// and latency percentiles.
func TestSmoke(t *testing.T) {
	for _, tc := range []struct {
		backend string
		want    []string
	}{
		{"live", []string{"clients", "ops/sec", "p50", "p99"}},
		{"net", []string{"clients", "ops/sec", "p50", "p99", "TCP"}},
	} {
		t.Run(tc.backend, func(t *testing.T) {
			out := cmdtest.RunWith(t, run, "liveload", "-backend", tc.backend,
				"-clients", "1,2,4", "-ops", "48", "-shards", "2", "-keys", "16")
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
			rows := 0
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "1 ") || strings.HasPrefix(line, "2 ") || strings.HasPrefix(line, "4 ") {
					rows++
					if !strings.Contains(line, "ok") {
						t.Errorf("row without ok verdict: %q", line)
					}
				}
			}
			if rows != 3 {
				t.Errorf("want 3 client-count rows, got %d:\n%s", rows, out)
			}
		})
	}
}

// TestSmokeWithDelayFaults sweeps under a delay plan: ops must still all
// complete (delays only slow links) and the sweep must stay consistent.
func TestSmokeWithDelayFaults(t *testing.T) {
	out := cmdtest.RunWith(t, run, "liveload",
		"-clients", "1,2", "-ops", "32", "-shards", "2", "-keys", "8",
		"-faults", "delay=1:8")
	if !strings.Contains(out, "delay=1:8") {
		t.Errorf("fault spec not echoed:\n%s", out)
	}
	if strings.Contains(out, "quiescent") {
		t.Errorf("pure delay sweep lost liveness:\n%s", out)
	}
}

// TestSmokeWithPartitionFaults sweeps under a healing partition on each
// backend: live holds the partitioned messages at the fault gate, net at
// the sockets. At -stepdur 100µs the 20ms window heals far inside the op
// timeout, so all ops must complete and stay consistent.
func TestSmokeWithPartitionFaults(t *testing.T) {
	for _, backend := range []string{"live", "net"} {
		t.Run(backend, func(t *testing.T) {
			out := cmdtest.RunWith(t, run, "liveload", "-backend", backend,
				"-clients", "1", "-ops", "16", "-shards", "1", "-keys", "4",
				"-faults", "partition@0:200")
			if !strings.Contains(out, "partition@0:200") {
				t.Errorf("fault spec not echoed:\n%s", out)
			}
			if strings.Contains(out, "quiescent") {
				t.Errorf("healing partition sweep lost liveness:\n%s", out)
			}
		})
	}
}

// TestRejectsBadFlags pins eager CLI validation on each backend, and that
// -backend names a wall-clock backend.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args [][]string
	}{
		{"live", [][]string{
			{"liveload", "-clients", "0"},
			{"liveload", "-clients", "two"},
			{"liveload", "-faults", "partition@40:10"}, // impossible window: parse-time error
			{"liveload", "-faults", "crash-f@40:10"},   // recovery before crash: parse-time error
		}},
		{"net", [][]string{
			{"liveload", "-backend", "net", "-clients", "0"},
			{"liveload", "-backend", "net", "-clients", "sixty-four"},
			{"liveload", "-backend", "net", "-faults", "partition@40:10"},
			{"liveload", "-backend", "net", "-faults", "crash-f@40:10"},
		}},
		{"backend", [][]string{
			{"liveload", "-backend", "sim"},
			{"liveload", "-backend", "tcp"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, args := range tc.args {
				if err := cmdtest.RunErr(t, run, args...); err == nil {
					t.Errorf("args %v: run succeeded, want error", args[1:])
				}
			}
		})
	}
}
