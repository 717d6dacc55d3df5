// Package live runs register-emulation clusters on the shared node runtime
// (internal/noderun) with the in-memory link: a message that passes the
// fault gate is posted straight into the target node's mailbox, and crossing
// a goroutine boundary is the whole of its journey. Messages are ioa.Message
// values handed between goroutines, so a sent message is never mutated.
//
// What is specific to this link (DESIGN.md sections 8 and 11): a node loop
// posts to its peers itself, so a full peer mailbox blocks the sender's
// loop. While blocked, the loop siphons its own mailbox into a deferred
// queue, so a cycle of mutually full mailboxes cannot wedge, and the post
// drops and counts the message only after Config.SendTimeout. A message
// addressed to a crashed node is counted loss: nothing is listening.
// Crash and recovery need nothing from the link, since the node has no
// resource besides its mailbox.
package live

import (
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/noderun"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config tunes the live runtime. The zero value selects the defaults.
type Config = noderun.Config

// Interactive is a running live deployment accepting one-at-a-time client
// operations (see noderun.Interactive).
type Interactive = noderun.Interactive

// PlanSupported reports whether a fault plan is well-formed for the live
// runtime (see noderun.PlanSupported).
func PlanSupported(p *faults.Plan) error { return noderun.PlanSupported(p) }

// backend is the runtime's in-memory link.
var backend = noderun.Backend{
	Name:   "live",
	Attach: func(rt *noderun.Runtime) (noderun.Link, error) { return link{rt}, nil },
}

// link posts every message straight into the target's mailbox.
type link struct{ rt *noderun.Runtime }

func (l link) Transmit(from, to *noderun.Node, msg ioa.Message, inLoop bool) {
	l.rt.PostFrom(from, to, msg, inLoop)
}

func (link) Crash(*noderun.Node)                                   {}
func (link) Recover(*noderun.Node) error                           { return nil }
func (link) Close()                                                {}
func (link) Loss() (dropped, requeued int)                         { return 0, 0 }
func (link) Telemetry(*telemetry.Registry, telemetry.Label) func() { return nil }

// Result reports a live run: the shared workload.Result (history, storage,
// fault stats, latencies), plus the wall-clock throughput only a concurrent
// runtime can measure.
type Result struct {
	*workload.Result
	// PendingOps counts operations still pending at shutdown.
	PendingOps int
	// Elapsed, OpsPerSec and CompletedOps measure the run.
	Elapsed      time.Duration
	OpsPerSec    float64
	CompletedOps int
}

// AsWorkload returns the simulator backend's result shape, so the store
// engine aggregates either backend's shards uniformly.
func (r *Result) AsWorkload() *workload.Result { return r.Result }

// Percentile returns the p-th percentile of the durations (nearest-rank on
// a sorted copy), or 0 for an empty slice.
func Percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Run executes the workload spec on the cluster's automata under the live
// concurrent runtime with the default Config. See RunConfig.
func Run(cl *cluster.Cluster, spec workload.Spec) (*Result, error) {
	return RunConfig(cl, spec, Config{})
}

// RunConfig executes the workload on the live runtime (see noderun.Run).
func RunConfig(cl *cluster.Cluster, spec workload.Spec, cfg Config) (*Result, error) {
	res, elapsed, err := noderun.Run(backend, cl, spec, cfg)
	if err != nil {
		return nil, err
	}
	r := &Result{
		Result:       res,
		PendingOps:   len(res.History.PendingOps()),
		Elapsed:      elapsed,
		CompletedOps: len(res.Latencies),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		r.OpsPerSec = float64(r.CompletedOps) / secs
	}
	return r, nil
}

// OpenInteractive starts a live deployment of the cluster for Invoke calls
// (see noderun.OpenInteractive). Close stops the goroutines.
func OpenInteractive(cl *cluster.Cluster, plan *faults.Plan, cfg Config) (*Interactive, error) {
	return noderun.OpenInteractive(backend, cl, plan, cfg)
}
