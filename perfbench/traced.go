package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	shmem "repro"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/ioa"
	"repro/internal/live"
	"repro/internal/netrun"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// timedChecker is the traced run's history sink: the online checker the
// store would install, with the time spent in its AppendOp (Observe) summed.
// Embedding keeps the checker's WindowLag/OpsObserved/OpsVerified visible to
// the runtime's telemetry sampler.
type timedChecker struct {
	*consistency.OnlineChecker
	busy atomic.Int64
}

func (c *timedChecker) AppendOp(op ioa.Op) error {
	t0 := time.Now()
	err := c.OnlineChecker.AppendOp(op)
	c.busy.Add(int64(time.Since(t0)))
	return err
}

// tracedBatch is what one traced batch yields: the counts the busy fractions
// and ratios are based on, the checker timings, the program's sampled op
// spans and the transport and storage series it published.
type tracedBatch struct {
	Attempted, Completed, Writes, Reads int
	Wall                                time.Duration
	ObserveNs, Observed                 int64
	MaxWindow                           int
	Verified                            int64
	MaxServerBits                       int
	Slack51                             float64
	SyncPoints                          int
	TransportDropped                    int // FaultStats.TransportDropped summed over shards
	Frames, Flushes, Bytes, FrameDrops  float64
	Spans                               []telemetry.SpanRecord
}

// runTracedBatch runs the batch's shards through the per-shard entry point
// store.Backend.RunShard with the wiring store.Run applies in online mode
// (checker as Sink, SyncOps = the checker window, the configured pipeline),
// except that the checker is the timed one and every shard publishes into a
// fresh telemetry registry. Shards run concurrently, as store.Run's worker
// pool runs them at GOMAXPROCS >= 2.
func runTracedBatch(w workload, m shmem.MultiWorkloadSpec, rec *recorder, parent int) (tracedBatch, error) {
	backend, err := store.BackendByName(w.Backend)
	if err != nil {
		return tracedBatch{}, err
	}
	loads, err := m.Partition(shards)
	if err != nil {
		return tracedBatch{}, err
	}
	reg := shmem.NewTelemetry()
	results := make([]*shmem.WorkloadResult, len(loads))
	checkers := make([]*timedChecker, len(loads))
	errs := make([]error, len(loads))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range loads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, end := rec.begin("store.run_shard", parent)
			defer end()
			cl, cond, err := store.DeployShard(w.Algorithm, servers, faultsF, m.TargetNu, writers, readers)
			if err != nil {
				errs[i] = err
				return
			}
			if cond != "atomic" {
				errs[i] = fmt.Errorf("%s guarantees %q, the online checker needs atomic", w.Algorithm, cond)
				return
			}
			chk := &timedChecker{OnlineChecker: consistency.NewOnlineChecker(nil)}
			tel := &telemetry.RunTelemetry{Registry: reg, Shard: i}
			opts := store.ShardOptions{
				Live: live.Config{Pipeline: pipeline, Sink: chk, SyncOps: consistency.DefaultWindowOps, Telemetry: tel},
				Net:  netrun.Config{Pipeline: pipeline, Sink: chk, SyncOps: consistency.DefaultWindowOps, Telemetry: tel},
			}
			res, err := backend.RunShard(cl, loads[i].Spec(m), opts)
			if err != nil {
				errs[i] = err
				return
			}
			if err := chk.Result(); err != nil {
				errs[i] = fmt.Errorf("consistency (online): %w", err)
				return
			}
			results[i], checkers[i] = res, chk
		}(i)
	}
	wg.Wait()
	b := tracedBatch{Wall: time.Since(t0), Attempted: m.Ops}
	for i, err := range errs {
		if err != nil {
			return b, fmt.Errorf("%w: traced shard %d: %v", errGate, i, err)
		}
	}
	quiescent, totalBits := 0, 0
	for i, res := range results {
		chk := checkers[i]
		b.Completed += len(res.Latencies)
		b.Writes += loads[i].Writes
		b.Reads += loads[i].Reads
		b.ObserveNs += chk.busy.Load()
		b.Observed += chk.OpsObserved()
		b.Verified += chk.OpsVerified()
		b.MaxWindow = max(b.MaxWindow, chk.MaxWindow())
		b.MaxServerBits = max(b.MaxServerBits, res.Storage.MaxServerBits)
		b.SyncPoints += (loads[i].Writes + loads[i].Reads) / consistency.DefaultWindowOps
		b.TransportDropped += res.Faults.TransportDropped
		totalBits += res.Storage.MaxTotalBits
		if res.Quiescent {
			quiescent++
		}
	}
	b.Slack51 = math.Inf(-1)
	for _, s := range reg.Gather() {
		switch s.Name {
		case telemetry.MetricTransportFramesSent:
			b.Frames += s.Value
		case telemetry.MetricTransportBatchesSent:
			b.Flushes += s.Value
		case telemetry.MetricTransportBytesSent:
			b.Bytes += s.Value
		case telemetry.MetricTransportDroppedFull, telemetry.MetricTransportDroppedDead:
			b.FrameDrops += s.Value
		case telemetry.MetricStorageSlackBits:
			if s.Label("theorem") == "5.1" {
				b.Slack51 = max(b.Slack51, s.Value)
			}
		}
	}
	if math.IsInf(b.Slack51, -1) {
		return b, errors.New("telemetry published no Theorem 5.1 storage slack")
	}
	b.Spans = reg.Tracer().Records()
	norm := float64(totalBits) / (float64(len(results)) * w.log2V())
	return b, gate(w, quiescent, b.Verified, norm)
}

// tracedRun is a traced run's raw material: untraced and traced batches
// interleaved on the same inputs, then the timed layer calls.
type tracedRun struct {
	untraced *tally
	traced   []tracedBatch
	layers   layerTimes
}

func runTraced(w workload, seed int64, o runOpts, rec *recorder) (*tracedRun, error) {
	root, end := rec.begin("run.traced", 0)
	defer end()
	st, _, err := openStore(w, seed, 0, 1, rec, root)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	heap := startHeapWatch()
	defer heap.close()

	tr := &tracedRun{untraced: newTally()}
	ops := o.batchOps(w)
	untraced := func(i int, t *tally) error {
		_, end := rec.begin("store.run_multi", root)
		defer end()
		b, err := runBatch(st, w, w.batch(seed, i, ops), heap, t.lat)
		t.batches = append(t.batches, b)
		return err
	}
	traced := func(i int, keep bool) error {
		id, end := rec.begin("traced.batch", root)
		b, err := runTracedBatch(w, w.batch(seed, i, ops), rec, id)
		end()
		if keep {
			tr.traced = append(tr.traced, b)
			for _, s := range b.Spans {
				rec.add(opSpan(rec, s, id))
			}
		}
		return err
	}
	// Warm both paths on batch 0 before timing anything.
	if err := untraced(0, newTally()); err != nil {
		return tr, err
	}
	if err := traced(0, false); err != nil {
		return tr, err
	}
	// Each pair runs one batch's inputs both ways; which goes first
	// alternates, so drift over the run does not favour either side.
	start := time.Now()
	for i := 1; time.Since(start) < o.Duration || len(tr.traced) < o.MinBatches; i++ {
		first, second := func() error { return untraced(i, tr.untraced) }, func() error { return traced(i, true) }
		if i%2 == 0 {
			first, second = second, first
		}
		if err := first(); err != nil {
			return tr, err
		}
		if err := second(); err != nil {
			return tr, err
		}
	}
	tr.layers, err = timeLayers(w, seed, tr, rec, root)
	return tr, err
}

// opSpan converts a sampled op span of the program's tracer into a recorded
// span under the batch that ran it.
func opSpan(rec *recorder, s telemetry.SpanRecord, parent int) span {
	start := int64(s.Start.Sub(rec.epoch))
	end := start
	for _, ns := range s.StageNs {
		if ns >= 0 {
			end = max(end, start+ns)
		}
	}
	return span{Parent: parent, Name: "op." + s.Kind, StartNs: start, EndNs: end, Stages: s.StageNs[:]}
}

// stageTimes splits the completed sampled spans into the four stage
// intervals, in microseconds: invoke→queue, queue→start, start→effect and
// effect→complete.
func stageTimes(bs []tracedBatch) (queue, startWait, effect, complete []float64) {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, b := range bs {
		for _, s := range b.Spans {
			st := s.StageNs
			if !s.Completed || st[telemetry.StageQueue] < 0 || st[telemetry.StageStart] < 0 || st[telemetry.StageEffect] < 0 {
				continue
			}
			queue = append(queue, us(st[telemetry.StageQueue]-st[telemetry.StageInvoke]))
			startWait = append(startWait, us(st[telemetry.StageStart]-st[telemetry.StageQueue]))
			effect = append(effect, us(st[telemetry.StageEffect]-st[telemetry.StageStart]))
			complete = append(complete, us(st[telemetry.StageComplete]-st[telemetry.StageEffect]))
		}
	}
	return queue, startWait, effect, complete
}

// tracedMetrics derives the per-layer metrics, keyed by name; assemble then
// replaces those of a layer the workload does not run with 0 and the reason.
func tracedMetrics(w workload, tr *tracedRun) map[string]metric {
	var (
		wall                               time.Duration
		completed, writes, reads, drops    int
		observeNs, observed                int64
		maxWindow, maxServerBits, syncs    int
		slack                              = math.Inf(-1)
		frames, flushes, bytes, frameDrops float64
		tracedRates                        []float64
	)
	for _, b := range tr.traced {
		wall += b.Wall
		completed += b.Completed
		writes += b.Writes
		reads += b.Reads
		observeNs += b.ObserveNs
		observed += b.Observed
		maxWindow = max(maxWindow, b.MaxWindow)
		maxServerBits = max(maxServerBits, b.MaxServerBits)
		slack = max(slack, b.Slack51)
		drops += b.TransportDropped
		syncs += b.SyncPoints
		frames += b.Frames
		flushes += b.Flushes
		bytes += b.Bytes
		frameDrops += b.FrameDrops
		tracedRates = append(tracedRates, ratio(float64(b.Completed), b.Wall.Seconds()))
	}
	procs := runtime.GOMAXPROCS(0)
	capacity := wall.Seconds() * float64(procs)
	capNote := fmt.Sprintf("over %.3fs traced wall time x %d GOMAXPROCS", wall.Seconds(), procs)
	nb := len(tr.traced)
	got := map[string]metric{}
	set := func(name string, v float64, note string) { got[name] = metric{Name: name, Value: v, Note: note} }

	set("consistency.observe_us_per_op", ratio(float64(observeNs)/1e3, float64(observed)),
		fmt.Sprintf("OnlineChecker.Observe time / %d ops observed", observed))
	set("consistency.busy_frac", ratio(float64(observeNs)/1e9, capacity), "Observe time "+capNote)
	set("consistency.max_window_ops", float64(maxWindow), "largest checker window over shards and batches")

	queue, startWait, effect, complete := stageTimes(tr.traced)
	spans := fmt.Sprintf("%d completed op spans sampled 1 in 64", len(queue))
	rt := map[string]string{"live": "live", "net": "netrun"}[w.Backend]
	p := func(xs []float64, q float64, what string) (float64, string) {
		r := nearestRank(xs, q)
		return r.Value, fmt.Sprintf("%s; %s; %d beyond", spans, what, r.Beyond)
	}
	for _, st := range []struct {
		name string
		xs   []float64
		q    float64
		what string
	}{
		{"queue_us_p50", queue, 0.5, "invoke to mailbox post"},
		{"start_wait_us_p50", startWait, 0.5, "mailbox post to node start"},
		{"start_wait_us_p99", startWait, 0.99, "mailbox post to node start"},
		{"effect_us_p50", effect, 0.5, "node start to response effect"},
		{"effect_us_p99", effect, 0.99, "node start to response effect"},
		{"complete_us_p50", complete, 0.5, "effect to client completion"},
	} {
		v, note := p(st.xs, st.q, st.what)
		set(rt+"."+st.name, v, note)
	}
	set(rt+".mailbox_dropped", float64(drops)-frameDrops, "FaultStats.TransportDropped minus transport frame drops, summed over traced batches")

	l := tr.layers
	set("transport.frames_per_op", ratio(frames, float64(completed)), fmt.Sprintf("%.0f frames sent / %d completed ops", frames, completed))
	set("transport.frames_per_flush", ratio(frames, flushes), fmt.Sprintf("%.0f frames / %.0f flushes", frames, flushes))
	set("transport.bytes_per_op", ratio(bytes, float64(completed)), fmt.Sprintf("%.0f bytes sent / %d completed ops", bytes, completed))
	set("transport.dropped_frames", frameDrops, "shmem_transport_dropped_{full,dead}_total summed over traced batches")
	set("transport.frame_roundtrip_us", l.RoundTripUs, l.RoundTripNote)
	set("wire.encode_ns_per_frame", l.EncodeNs, l.WireNote)
	set("wire.decode_ns_per_frame", l.DecodeNs, l.WireNote)
	set("wire.allocs_per_frame", l.AllocsPerFrame, "wire.Append into a reused buffer plus wire.Decode; "+l.WireNote)

	busy := (l.EncodeUs*float64(writes) + l.DecodeUs*float64(reads)) / 1e6
	set("erasure.encode_us_per_value", l.EncodeUs, l.ErasureNote)
	set("erasure.decode_us_per_value", l.DecodeUs, l.ErasureNote)
	set("erasure.busy_frac", ratio(busy, capacity), fmt.Sprintf("(encode x %d writes + decode x %d reads) %s", writes, reads, capNote))

	bound := core.Theorem51MaxBits(core.Params{N: servers, F: faultsF}, w.log2V())
	set("store.max_server_bits", float64(maxServerBits), "largest per-server storage high-water mark over traced shards")
	set("store.bound_slack_bits", slack, fmt.Sprintf("max per-server bits minus the Theorem 5.1 per-server bound %.1f, from shmem_storage_slack_bits", bound))
	set("workload.gen_us_per_op", l.GenUs, l.GenNote)
	set("workload.sync_points", ratio(float64(syncs), float64(nb)),
		fmt.Sprintf("quiescence rounds due per batch: shard ops / SyncOps %d summed over shards, mean over %d batches", consistency.DefaultWindowOps, nb))

	untracedRate, tracedRate := tr.untraced.opsPerSec(), median(tracedRates)
	set("telemetry.overhead_frac", 1-ratio(tracedRate, untracedRate),
		fmt.Sprintf("1 - traced / untraced median ops_per_s over %d interleaved batch pairs", nb))
	set("telemetry.traced_ops_per_s", tracedRate, "median over traced batches: RunShard path with telemetry and the timed checker")
	set("telemetry.untraced_ops_per_s", untracedRate, "median over the interleaved untraced RunMulti batches")
	return got
}
