package noderun

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/workload"
)

// Run executes the workload on the backend's link: min(TargetNu, writers)
// writer goroutines and every reader goroutine issue operations from shared
// budgets until the spec's counts are exhausted, up to Config.Pipeline
// operations in flight per client. It returns the shared workload.Result
// shape — Latencies carries the per-operation wall times — and the run's
// wall time. Fault plans run in full — drop/delay rules, outage windows and
// scheduled crash/recovery, the step-indexed ones mapped onto wall time by
// the runtime's faults.WallClock. The spec's random Crashes budget remains
// genuinely unsupported (it draws crash points from the simulator's
// schedule, which does not exist here) and is rejected with
// faults.ErrUnsupported.
func Run(b Backend, cl *cluster.Cluster, spec workload.Spec, cfg Config) (*workload.Result, time.Duration, error) {
	cfg = cfg.withDefaults()
	if err := cl.Validate(); err != nil {
		return nil, 0, err
	}
	if err := spec.Validate(cl); err != nil {
		return nil, 0, err
	}
	if spec.Crashes != 0 {
		return nil, 0, fmt.Errorf("%s: %w: the random crash budget draws crash points from the simulator's schedule; schedule crashes via the fault plan instead (got Crashes=%d)",
			b.Name, faults.ErrUnsupported, spec.Crashes)
	}
	if spec.Reads > 0 && len(cl.Readers) == 0 {
		return nil, 0, fmt.Errorf("%s: %d reads requested but the cluster has no readers", b.Name, spec.Reads)
	}
	if err := checkClients(cl); err != nil {
		return nil, 0, err
	}
	rt, err := newRuntime(b, cl, spec.FaultPlan, cfg)
	if err != nil {
		return nil, 0, err
	}
	rt.start()
	stopTelemetry := rt.startTelemetry(cl, spec)

	// The windowed flight driver (workload.RunFlights) issues the
	// operations; the runtime contributes the async invoke and the
	// telemetry hooks.
	onSubmit, observe := cfg.Telemetry.OpObserver()
	fres := workload.RunFlights(cl, spec, workload.FlightConfig{
		Pipeline:  cfg.Pipeline,
		SyncOps:   cfg.SyncOps,
		OpTimeout: cfg.OpTimeout,
		Invoke: func(client ioa.NodeID, inv ioa.Invocation) workload.Flight {
			return rt.invokeAsync(client, inv)
		},
		OnSubmit: onSubmit,
		Observe:  observe,
	})
	rt.stop()
	stopTelemetry()

	res := &workload.Result{
		PeakActiveWrites: fres.PeakActiveWrites,
		Log2V:            float64(8 * spec.ValueBytes),
		Faults:           rt.faultStats(),
		Latencies:        fres.Latencies,
	}
	if rt.feed != nil {
		// Streaming mode: the sink has already absorbed every settled op in
		// invocation order; all that remains here is the pending tail, which
		// Flush settles as abandoned and reports. History carries just those
		// pending ops, so the pending/quiescent accounting below is
		// unchanged while run memory stays bounded by the sink, not the run.
		pend, ferr := rt.feed.Flush()
		if ferr != nil {
			return nil, 0, fmt.Errorf("%s: history sink: %w", b.Name, ferr)
		}
		if res.History, err = ioa.HistoryFromOps(pend); err != nil {
			return nil, 0, err
		}
	} else if res.History, err = rt.mergeHistory(cl); err != nil {
		return nil, 0, err
	}
	if pending := len(res.History.PendingOps()); pending > 0 {
		if spec.FaultPlan == nil {
			return nil, 0, fmt.Errorf("%s: %d operations timed out with no fault plan installed", b.Name, pending)
		}
		res.Quiescent = true
	}
	res.Storage = rt.storageReport(cl)
	res.NormalizedTotal = float64(res.Storage.MaxTotalBits) / res.Log2V
	return res, fres.Elapsed, nil
}

// checkClients rejects a cluster whose clients are not client automata; the
// cluster helper checks the registered originals, which the runtime clones.
func checkClients(cl *cluster.Cluster) error {
	for _, id := range append(append([]ioa.NodeID(nil), cl.Writers...), cl.Readers...) {
		if _, err := cl.ClientAutomaton(id); err != nil {
			return err
		}
	}
	return nil
}

// mergeHistory folds the per-client logs into one ioa.History ordered by the
// runtime clock.
func (rt *Runtime) mergeHistory(cl *cluster.Cluster) (*ioa.History, error) {
	var ops []ioa.Op
	for _, ids := range [][]ioa.NodeID{cl.Writers, cl.Readers} {
		for _, id := range ids {
			ns := rt.nodes[id]
			for _, rec := range ns.log {
				op := ioa.Op{
					Client:      id,
					Kind:        rec.kind,
					Input:       rec.input,
					Output:      rec.output,
					InvokeStep:  int(rec.invokeTS),
					RespondStep: -1,
				}
				if rec.respondTS >= 0 {
					op.RespondStep = int(rec.respondTS)
				}
				ops = append(ops, op)
			}
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].InvokeStep < ops[j].InvokeStep })
	return ioa.HistoryFromOps(ops)
}

// storageReport sums the per-server maxima observed by the node goroutines.
// MaxTotalBits is the sum of the per-server maxima — an upper estimate of
// the simulator's step-accurate total high-water mark, since no global
// snapshot exists in a concurrent run. It keys on the construction-time
// metered flag, not ns.meter: the meter is rewritten by crash recovery on
// the scheduler goroutine, while the bit counts live in atomics that any
// goroutine may read mid-run.
func (rt *Runtime) storageReport(cl *cluster.Cluster) ioa.StorageReport {
	rep := ioa.StorageReport{PerServerMaxBits: make(map[ioa.NodeID]int, len(cl.Servers))}
	for _, id := range cl.Servers {
		ns := rt.nodes[id]
		if ns == nil || !ns.metered {
			continue
		}
		maxBits := int(ns.maxBits.Load())
		rep.PerServerMaxBits[id] = maxBits
		rep.MaxTotalBits += maxBits
		rep.CurrentTotalBits += int(ns.curBits.Load())
		if maxBits > rep.MaxServerBits {
			rep.MaxServerBits = maxBits
		}
	}
	return rep
}
