package noderun

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/workload"
)

// Interactive is a running deployment accepting one-at-a-time client
// operations: the node goroutines (and, on the net link, their sockets)
// stay up between calls, so a sequence of Invoke calls interleaves with
// other clients' operations exactly as a deployed service would. It is the
// single-op execution path — Run remains for batch experiments.
//
// Invoke is safe for concurrent use across clients; operations at the same
// client are serialized (a register client automaton holds one operation at
// a time). A client whose operation times out is retired: its automaton is
// stuck mid-protocol waiting on lost messages, so later Invokes on it fail
// fast with ErrClientRetired rather than corrupting the protocol state.
type Interactive struct {
	cfg           Config
	rt            *Runtime
	stopTelemetry func()

	mu     sync.Mutex
	perCl  map[ioa.NodeID]*clientGate
	closed bool
}

// clientGate serializes one client's operations and remembers retirement.
type clientGate struct {
	mu      sync.Mutex
	retired bool
}

// ErrClientRetired marks a client whose earlier operation timed out: the
// automaton is mid-protocol and cannot accept another invocation.
var ErrClientRetired = errors.New("client retired after a timed-out operation")

// OpenInteractive clones the cluster's automata, attaches the backend's
// link, starts the node goroutines and returns a session ready for Invoke.
// The fault plan applies in full, exactly as in Run: drop/delay rules and
// outage windows at every send, scheduled crash/recovery on the runtime's
// wall-clock step mapping. The session records no history — its caller
// keeps the checked record — and cfg.Sink applies to Run only. Close stops
// the goroutines and the link.
func OpenInteractive(b Backend, cl *cluster.Cluster, plan *faults.Plan, cfg Config) (*Interactive, error) {
	cfg = cfg.withDefaults()
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if err := checkClients(cl); err != nil {
		return nil, err
	}
	rt, err := newRuntime(b, cl, plan, cfg)
	if err != nil {
		return nil, err
	}
	s := &Interactive{cfg: cfg, rt: rt, perCl: make(map[ioa.NodeID]*clientGate)}
	for _, ids := range [][]ioa.NodeID{cl.Writers, cl.Readers} {
		for _, id := range ids {
			s.perCl[id] = &clientGate{}
		}
	}
	rt.start()
	// Interactive sessions have no fixed value size, so the sampler skips
	// the paper-bound gauges and publishes the raw storage watermarks.
	s.stopTelemetry = rt.startTelemetry(cl, workload.Spec{})
	return s, nil
}

// Invoke runs one operation at the client to completion and returns its
// output (the read value; nil for writes). It blocks until the response,
// the per-op timeout, or ctx cancellation — whichever comes first. On
// timeout or cancellation the operation is abandoned: pending reports that
// it was genuinely invoked and may still take effect (its caller must keep
// it pending in any checked history), and the client is retired.
func (s *Interactive) Invoke(ctx context.Context, client ioa.NodeID, inv ioa.Invocation) (out []byte, pending bool, err error) {
	name := s.rt.name
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, fmt.Errorf("%s: session closed", name)
	}
	gate := s.perCl[client]
	s.mu.Unlock()
	if gate == nil {
		return nil, false, fmt.Errorf("%s: node %d is not a client of this deployment", name, client)
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if gate.retired {
		return nil, false, fmt.Errorf("%s: client %d: %w", name, client, ErrClientRetired)
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	out, started, ok := s.rt.invokeAsync(client, inv).wait(ctx, s.cfg.OpTimeout)
	if !ok {
		if !started {
			// Backpressure dropped the invocation before the automaton saw
			// it: the client is untouched and stays usable, and the op
			// must NOT appear in any checked history.
			return nil, false, fmt.Errorf("%s: operation at client %d was dropped before it started (mailbox full past SendTimeout)", name, client)
		}
		gate.retired = true
		if err := ctx.Err(); err != nil {
			return nil, true, fmt.Errorf("%s: operation at client %d abandoned: %w", name, client, err)
		}
		return nil, true, fmt.Errorf("%s: operation at client %d timed out after %v (pending; client retired)", name, client, s.cfg.OpTimeout)
	}
	return out, false, nil
}

// Retired reports whether the client has been retired by a timed-out
// operation.
func (s *Interactive) Retired(client ioa.NodeID) bool {
	s.mu.Lock()
	gate := s.perCl[client]
	s.mu.Unlock()
	if gate == nil {
		return false
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	return gate.retired
}

// Storage snapshots the per-server storage maxima observed so far. Safe to
// call while operations are in flight: the counters are atomics maintained
// by the node goroutines.
func (s *Interactive) Storage(cl *cluster.Cluster) ioa.StorageReport {
	return s.rt.storageReport(cl)
}

// FaultStats snapshots the drop/delay/hold events applied so far.
func (s *Interactive) FaultStats() ioa.FaultStats {
	return s.rt.faultStats()
}

// Timers reports the runtime's fault-gate timer registry: how many
// delay/outage timers are pending, whether the registry still exists, and
// whether stop has run. After Close the registry is gone (tracked false):
// every pending timer was stopped rather than left to fire into the dead
// runtime.
func (s *Interactive) Timers() (pending int, tracked, stopped bool) {
	rt := s.rt
	rt.timerMu.Lock()
	defer rt.timerMu.Unlock()
	return len(rt.timers), rt.timers != nil, rt.stopped
}

// Close stops the node goroutines and closes the link. Idempotent.
func (s *Interactive) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.rt.stop()
	s.stopTelemetry()
	return nil
}
