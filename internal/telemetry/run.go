package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
)

// Canonical metric names emitted by the runtimes. Keeping them as constants
// here means the live and net runtimes, the stat line, and the tests all
// agree on one spelling.
const (
	// Per-op driver metrics (labels: shard, kind).
	MetricOpsStarted   = "shmem_ops_started_total"
	MetricOpsCompleted = "shmem_ops_completed_total"
	MetricOpsFailed    = "shmem_ops_failed_total"
	MetricOpLatency    = "shmem_op_latency_seconds"

	// Storage sampler (labels: shard, node; bounds add theorem).
	MetricStorageBits      = "shmem_storage_bits"
	MetricStorageMaxBits   = "shmem_storage_max_bits"
	MetricStorageBoundBits = "shmem_storage_bound_bits"
	MetricStorageSlackBits = "shmem_storage_slack_bits"

	// Online checker (labels: shard).
	MetricCheckerLag      = "shmem_checker_window_lag"
	MetricCheckerObserved = "shmem_checker_ops_observed_total"
	MetricCheckerVerified = "shmem_checker_ops_verified_total"
	MetricCheckerRetained = "shmem_checker_retained_ops"

	// Transport endpoint counters (labels: shard, node).
	MetricTransportFramesSent  = "shmem_transport_frames_sent_total"
	MetricTransportFramesRecv  = "shmem_transport_frames_received_total"
	MetricTransportBatchesSent = "shmem_transport_batches_sent_total"
	MetricTransportBytesSent   = "shmem_transport_bytes_sent_total"
	MetricTransportBytesRecv   = "shmem_transport_bytes_received_total"
	MetricTransportDroppedFull = "shmem_transport_dropped_full_total"
	MetricTransportDroppedDead = "shmem_transport_dropped_dead_total"
	MetricTransportRequeued    = "shmem_transport_requeued_total"
	MetricTransportMalformed   = "shmem_transport_malformed_total"
	MetricTransportBatchFrames = "shmem_transport_batch_frames"
)

// RunTelemetry configures telemetry for one runtime instance. Runtimes
// treat a nil *RunTelemetry (or nil Registry) as "off" and pay nothing.
type RunTelemetry struct {
	// Registry receives all metrics. nil disables telemetry.
	Registry *Registry
	// Shard labels every series this run emits.
	Shard int
	// Interactive marks a long-lived interactive session's runtime. Its
	// series get "interactive-<shard>" shard labels, so a store's standing
	// interactive shards and its batch runs (which reuse the same shard
	// indices on fresh clusters) never write to the same series.
	Interactive bool
	// Interval is the storage-sampler tick; 0 means DefaultInterval.
	Interval time.Duration
}

// ShardLabel returns the shard-label value this run's series carry.
func (t *RunTelemetry) ShardLabel() string {
	if t.Interactive {
		return "interactive-" + strconv.Itoa(t.Shard)
	}
	return strconv.Itoa(t.Shard)
}

// DefaultInterval is the storage-sampler tick when RunTelemetry.Interval is
// zero: fast enough to catch watermark spikes within a client round-trip,
// slow enough that a 32-node shard costs well under 0.1% of a core (the
// overhead budget in DESIGN.md section 14).
const DefaultInterval = 5 * time.Millisecond

// Active reports whether this config actually records anything.
func (t *RunTelemetry) Active() bool { return t != nil && t.Registry != nil }

// SampleInterval returns the configured tick, defaulted.
func (t *RunTelemetry) SampleInterval() time.Duration {
	if t == nil || t.Interval <= 0 {
		return DefaultInterval
	}
	return t.Interval
}

// OpObserver builds the flight-driver hooks for this run: a submit hook
// feeding started-op counters and a settle hook feeding completed/failed
// counters plus the op-latency histogram, all labeled {shard, kind}.
// Returns (nil, nil) when telemetry is off, which the driver treats as
// no-ops.
func (t *RunTelemetry) OpObserver() (onSubmit func(isWrite bool), observe func(isWrite bool, latency time.Duration, ok bool)) {
	if !t.Active() {
		return nil, nil
	}
	type kindSet struct {
		started, completed, failed Counter
		lat                        *Histogram
	}
	shard := t.ShardLabel()
	mk := func(kind string) kindSet {
		ls := []Label{L("shard", shard), L("kind", kind)}
		return kindSet{
			started:   t.Registry.Counter(MetricOpsStarted, "operations submitted by the driver", ls...),
			completed: t.Registry.Counter(MetricOpsCompleted, "operations completed within their timeout", ls...),
			failed:    t.Registry.Counter(MetricOpsFailed, "operations timed out or abandoned", ls...),
			lat:       t.Registry.Histogram(MetricOpLatency, "wall-clock operation latency in seconds", LatencyBuckets(), ls...),
		}
	}
	w, r := mk("write"), mk("read")
	pick := func(isWrite bool) kindSet {
		if isWrite {
			return w
		}
		return r
	}
	onSubmit = func(isWrite bool) { pick(isWrite).started.Inc() }
	observe = func(isWrite bool, latency time.Duration, ok bool) {
		ks := pick(isWrite)
		if ok {
			ks.completed.Inc()
			ks.lat.ObserveDuration(latency)
		} else {
			ks.failed.Inc()
		}
	}
	return onSubmit, observe
}

// Summary is a compact digest of a registry for periodic stat lines.
type Summary struct {
	// Ops is the total completed op count across shards and kinds.
	Ops uint64
	// Failed is the total failed/abandoned op count.
	Failed uint64
	// P50 and P99 are op-latency quantiles over all merged histograms.
	P50, P99 time.Duration
	// MaxStorageBits is the largest per-node storage watermark seen.
	MaxStorageBits float64
	// BoundBits is the Theorem 4.1 per-node bound for the run (0 if the
	// sampler has not published it).
	BoundBits float64
	// WindowLag is the worst online-checker window lag across shards.
	WindowLag float64
}

// Summarize digests the registry's well-known series into a Summary.
func Summarize(reg *Registry) Summary {
	var s Summary
	var lat *HistogramSnapshot
	for _, sm := range reg.Gather() {
		switch sm.Name {
		case MetricOpsCompleted:
			s.Ops += uint64(sm.Value)
		case MetricOpsFailed:
			s.Failed += uint64(sm.Value)
		case MetricOpLatency:
			if sm.Hist == nil {
				continue
			}
			if lat == nil {
				cp := *sm.Hist
				cp.Counts = append([]uint64(nil), sm.Hist.Counts...)
				lat = &cp
			} else {
				_ = lat.Merge(*sm.Hist)
			}
		case MetricStorageMaxBits:
			s.MaxStorageBits = math.Max(s.MaxStorageBits, sm.Value)
		case MetricStorageBoundBits:
			if sm.Label("theorem") == "4.1" {
				s.BoundBits = math.Max(s.BoundBits, sm.Value)
			}
		case MetricCheckerLag:
			s.WindowLag = math.Max(s.WindowLag, sm.Value)
		}
	}
	if lat != nil {
		s.P50 = time.Duration(lat.Quantile(0.50) * float64(time.Second))
		s.P99 = time.Duration(lat.Quantile(0.99) * float64(time.Second))
	}
	return s
}

// LogStats starts a goroutine printing one stat line to w every interval:
// ops/s since the previous line, p50/p99 op latency, max storage bits
// against the Theorem 4.1 bound, and checker window lag. The returned stop
// func halts it (idempotent) and prints a final line.
func LogStats(w io.Writer, reg *Registry, every time.Duration) (stop func()) {
	if every <= 0 {
		every = 2 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	line := func(prev uint64, dt time.Duration) uint64 {
		s := Summarize(reg)
		rate := float64(s.Ops-prev) / dt.Seconds()
		bound := "n/a"
		if s.BoundBits > 0 {
			bound = fmt.Sprintf("%.0f", s.BoundBits)
		}
		fmt.Fprintf(w, "telemetry: %8.0f ops/s  p50 %s  p99 %s  storage max %.0f / bound %s bits  window-lag %.0f\n",
			rate, s.P50.Round(time.Microsecond), s.P99.Round(time.Microsecond), s.MaxStorageBits, bound, s.WindowLag)
		return s.Ops
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		prev := Summarize(reg).Ops
		last := time.Now()
		for {
			select {
			case <-done:
				if dt := time.Since(last); dt > 100*time.Millisecond {
					line(prev, dt)
				}
				return
			case now := <-tick.C:
				prev = line(prev, now.Sub(last))
				last = now
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}
