package main

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted on purpose
	}
	for _, tc := range []struct {
		p            float64
		want         float64
		samples, bey int
	}{
		{0.50, 500, 1000, 500},
		{0.99, 990, 1000, 10},
		{1.00, 1000, 1000, 0},
		{0.0001, 1, 1000, 999},
	} {
		got := nearestRank(xs, tc.p)
		if got.Value != tc.want || got.Samples != tc.samples || got.Beyond != tc.bey {
			t.Errorf("nearestRank(p=%v) = %+v, want value %v, %d samples, %d beyond", tc.p, got, tc.want, tc.samples, tc.bey)
		}
	}
	if got := nearestRank(nil, 0.5); got != (rank{}) {
		t.Errorf("nearestRank(empty) = %+v, want zero", got)
	}
	// p99 keeps at least ten samples beyond it only from 1000 samples up.
	if got := nearestRank(xs[:999], 0.99); got.Beyond != 9 {
		t.Errorf("p99 of 999 samples has %d beyond, want 9", got.Beyond)
	}
}

func TestMedianAndRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio over a zero base = %v, want 0", got)
	}
}

// TestLatencyHistMatchesExactRanks checks the fixed-memory histogram against
// nearest rank on the raw samples, including samples past its span.
func TestLatencyHistMatchesExactRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ds []time.Duration
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(400*time.Microsecond))
		if i%97 == 0 {
			d += histSpan // a tail past the bucketed range
		}
		ds = append(ds, d)
	}
	h := newLatencyHist()
	h.add(ds[:2500])
	h.add(ds[2500:])
	exact := durationsMs(ds)
	for _, p := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		got, want := h.rank(p), nearestRank(exact, p)
		if got.Samples != want.Samples || got.Beyond != want.Beyond {
			t.Errorf("p=%v: counts %+v, want %+v", p, got, want)
		}
		if math.Abs(got.Value-want.Value) > 0.001 {
			t.Errorf("p=%v: %vms, want %vms within 1µs", p, got.Value, want.Value)
		}
	}
}

// TestFailedFracBase checks that ops_failed_frac and ops_completed_frac are
// taken over attempted operations, and verified_frac over completed ones.
func TestFailedFracBase(t *testing.T) {
	w, _ := workloadByName("live-abd-small")
	run := &e2eRun{setup: []float64{0.002, 0.001, 0.003}, t: newTally()}
	run.t.batches = []batch{
		{Attempted: 1000, Completed: 990, Wall: time.Second, CPU: 2 * time.Second, Verified: 900, StorageNorm: 6},
		{Attempted: 1000, Completed: 1000, Wall: time.Second, CPU: 2 * time.Second, Verified: 900, StorageNorm: 6},
	}
	run.t.lat.add([]time.Duration{time.Millisecond})
	got := e2eMetrics(w, run)
	for name, want := range map[string]float64{
		"ops_failed_frac":    10.0 / 2000,
		"ops_completed_frac": 1990.0 / 2000,
		"verified_frac":      1800.0 / 1990,
		"ops_per_s":          995,
		"cpu_ms_per_kop":     (2000/0.99 + 2000) / 2,
		"setup_s":            0.002,
		"storage_norm":       6,
	} {
		if v := got[name].Value; math.Abs(v-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
}

// TestPerLayerBases checks every per-layer ratio against hand-computed
// values on a synthetic net run.
func TestPerLayerBases(t *testing.T) {
	w, _ := workloadByName("net-abd-small")
	span := func(q, s, e, c int64) telemetry.SpanRecord {
		return telemetry.SpanRecord{Kind: "write", Completed: true, StageNs: [5]int64{0, q, s, e, c}}
	}
	tr := &tracedRun{untraced: newTally()}
	tr.untraced.batches = []batch{{Attempted: 100, Completed: 100, Wall: 50 * time.Millisecond}}
	tr.traced = []tracedBatch{{
		Attempted: 100, Completed: 100, Writes: 80, Reads: 20,
		Wall:      100 * time.Millisecond,
		ObserveNs: 2e6, Observed: 100, MaxWindow: 40, Verified: 90,
		MaxServerBits: 600, Slack51: 430, SyncPoints: 3,
		TransportDropped: 5, FrameDrops: 2,
		Frames: 2000, Flushes: 1000, Bytes: 80000,
		Spans: []telemetry.SpanRecord{span(1000, 3000, 7000, 8000), span(2000, 5000, 6000, 9000)},
	}}
	tr.layers = layerTimes{EncodeNs: 100, DecodeNs: 150, AllocsPerFrame: 3, RoundTripUs: 30, GenUs: 0.2}
	capacity := 0.1 * float64(runtime.GOMAXPROCS(0))
	got := tracedMetrics(w, tr)
	for name, want := range map[string]float64{
		"consistency.observe_us_per_op": 20,
		"consistency.busy_frac":         0.002 / capacity,
		"consistency.max_window_ops":    40,
		"netrun.queue_us_p50":           1,
		"netrun.start_wait_us_p50":      2,
		"netrun.start_wait_us_p99":      3,
		"netrun.effect_us_p50":          1,
		"netrun.effect_us_p99":          4,
		"netrun.complete_us_p50":        1,
		"netrun.mailbox_dropped":        3,
		"transport.frames_per_op":       20,
		"transport.frames_per_flush":    2,
		"transport.bytes_per_op":        800,
		"transport.dropped_frames":      2,
		"transport.frame_roundtrip_us":  30,
		"store.max_server_bits":         600,
		"store.bound_slack_bits":        430,
		"workload.sync_points":          3,
		"telemetry.traced_ops_per_s":    1000,
		"telemetry.untraced_ops_per_s":  2000,
		"telemetry.overhead_frac":       0.5,
	} {
		if v := got[name].Value; math.Abs(v-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	// The erasure busy fraction weighs unit costs by the run's own counts.
	w, _ = workloadByName("live-casgc-4k")
	tr.layers = layerTimes{EncodeUs: 10, DecodeUs: 5}
	got = tracedMetrics(w, tr)
	if v, want := got["erasure.busy_frac"].Value, (10*80+5*20)/1e6/capacity; math.Abs(v-want) > 1e-12 {
		t.Errorf("erasure.busy_frac = %v, want %v", v, want)
	}
}
