// Package netrun runs register-emulation clusters on the shared node
// runtime (internal/noderun) with the TCP link: every node owns a
// transport.Endpoint, messages cross real sockets as compact binary frames
// (internal/wire), and faults become physical events — a dropped message is
// never written to its socket, a delayed message is held before the write,
// a partitioned link's frames are held at the sender until the outage
// window ends.
//
// What is specific to this link (DESIGN.md sections 10, 11 and 12):
//
//   - A message is encoded when the link transmits it, after the fault gate.
//     Sent messages are immutable, so a delayed message encodes the same
//     bytes it would have at send time.
//   - Backpressure is TCP's. The transport's per-connection outboxes are
//     bounded, and a full one blocks the sender up to SendTimeout before the
//     frame is dropped and counted. A transport reader blocked on a full
//     mailbox stops reading its socket, so pressure propagates peer-to-peer
//     through TCP flow control; the node loops never block on a mailbox, so
//     they never siphon. The transport writer coalesces queued frames into
//     compound envelopes, so a burst costs one syscall instead of one per
//     message.
//   - A crash closes the node's endpoint, so peers' in-flight frames die as
//     real network loss. A recovery swaps in a fresh listening endpoint, and
//     peers redial the new address on their next send.
//   - Undecodable inbound frames, failed sends and the endpoints' own loss
//     accounting fold into FaultStats.TransportDropped, and the telemetry
//     sampler lifts the per-node transport counters.
package netrun

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/noderun"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Config tunes the net runtime. The zero value selects the defaults.
type Config struct {
	// ListenAddr is the address every node endpoint listens on (default
	// "127.0.0.1:0": one ephemeral loopback port per node). A fixed port in
	// the spec would collide across nodes, so the port part should stay 0.
	ListenAddr string
	// StepDur converts a fault plan's steps into wall-clock time (default
	// 100µs); see noderun.Config.
	StepDur time.Duration
	// OpTimeout bounds each operation's completion (default 5s); a client
	// whose operation times out is retired.
	OpTimeout time.Duration
	// Mailbox is the per-node buffered event queue capacity (default 128).
	Mailbox int
	// DialTimeout bounds each outbound connection attempt (default: the
	// transport's own 2s).
	DialTimeout time.Duration
	// Outbox is the transport's per-connection send queue capacity
	// (default: the transport's own 256).
	Outbox int
	// SendTimeout bounds how long a sender blocks on a full mailbox or
	// transport outbox before the message is dropped and counted (default
	// 1s).
	SendTimeout time.Duration
	// Pipeline is the number of operations each batch driver keeps in
	// flight per client (default 1); see noderun.Config.
	Pipeline int
	// Checkpoint is the durable-state snapshot interval for nodes the fault
	// plan schedules a recovery for (default 5ms).
	Checkpoint time.Duration
	// Sink receives a batch run's operations through the runtime's one
	// ioa.OpFeed; Run only, see noderun.Config.
	Sink ioa.HistorySink
	// SyncOps, when positive, installs periodic quiescence points in the
	// batch drivers; see noderun.Config.
	SyncOps int
	// Telemetry, when it carries a registry, streams run metrics into it,
	// including the per-node transport counters lifted from the endpoints;
	// see noderun.Config.
	Telemetry *telemetry.RunTelemetry
}

// core returns the shared runtime's share of the configuration.
func (c Config) core() noderun.Config {
	return noderun.Config{
		StepDur:     c.StepDur,
		OpTimeout:   c.OpTimeout,
		Mailbox:     c.Mailbox,
		SendTimeout: c.SendTimeout,
		Pipeline:    c.Pipeline,
		Checkpoint:  c.Checkpoint,
		Sink:        c.Sink,
		SyncOps:     c.SyncOps,
		Telemetry:   c.Telemetry,
	}
}

// backend returns the TCP link for this configuration.
func (c Config) backend() noderun.Backend {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	tc := transport.Config{DialTimeout: c.DialTimeout, Outbox: c.Outbox, SendTimeout: c.SendTimeout}
	return noderun.Backend{
		Name: "netrun",
		Attach: func(rt *noderun.Runtime) (noderun.Link, error) {
			l := &link{rt: rt, addr: c.ListenAddr, cfg: tc, peers: make(map[ioa.NodeID]peer)}
			for _, n := range rt.Nodes() {
				if err := l.listen(n); err != nil {
					l.Close()
					return nil, fmt.Errorf("netrun: node %d: %w", n.ID(), err)
				}
			}
			return l, nil
		},
	}
}

// Interactive is a running net deployment accepting one-at-a-time client
// operations over real TCP connections (see noderun.Interactive).
type Interactive = noderun.Interactive

// PlanSupported reports whether a fault plan is well-formed for the net
// runtime (see noderun.PlanSupported).
func PlanSupported(p *faults.Plan) error { return noderun.PlanSupported(p) }

// Run executes the workload spec on the cluster's automata over real
// sockets with the default Config. See RunConfig.
func Run(cl *cluster.Cluster, spec workload.Spec) (*workload.Result, error) {
	return RunConfig(cl, spec, Config{})
}

// RunConfig executes the workload on the net runtime, every message
// crossing a real TCP socket (see noderun.Run).
func RunConfig(cl *cluster.Cluster, spec workload.Spec, cfg Config) (*workload.Result, error) {
	res, _, err := noderun.Run(cfg.backend(), cl, spec, cfg.core())
	return res, err
}

// OpenInteractive starts a net deployment of the cluster for Invoke calls,
// opening every node's TCP endpoint (see noderun.OpenInteractive). Close
// stops the goroutines and closes every socket.
func OpenInteractive(cl *cluster.Cluster, plan *faults.Plan, cfg Config) (*Interactive, error) {
	return noderun.OpenInteractive(cfg.backend(), cl, plan, cfg.core())
}

// peer is one node's endpoint and its dialable address.
type peer struct {
	ep   *transport.Endpoint
	addr string
}

// link carries messages between nodes as frames over their endpoints.
type link struct {
	rt   *noderun.Runtime
	addr string
	cfg  transport.Config

	mu    sync.RWMutex // guards peers: recovery swaps a node's endpoint
	peers map[ioa.NodeID]peer

	badFrames       atomic.Int64 // undecodable inbound frames, dropped
	sendErrs        atomic.Int64 // frames lost to failed dials/closed endpoints
	retiredDropped  atomic.Int64 // transport loss accumulated off endpoints a recovery replaced
	retiredRequeued atomic.Int64
}

// listen opens a fresh endpoint for the node and serves it, replacing the
// node's previous endpoint, whose loss accounting is folded in first so
// FaultStats never understates loss.
func (l *link) listen(n *noderun.Node) error {
	ep, err := transport.Listen(l.addr, l.cfg)
	if err != nil {
		return err
	}
	l.mu.Lock()
	if old := l.peers[n.ID()].ep; old != nil {
		s := old.Stats()
		l.retiredDropped.Add(int64(s.DroppedFull + s.DroppedDead + s.Malformed))
		l.retiredRequeued.Add(int64(s.Requeued))
	}
	l.peers[n.ID()] = peer{ep: ep, addr: ep.Addr()}
	l.mu.Unlock()
	ep.Serve(func(frame []byte) { l.inbound(n, frame) })
	return nil
}

// inbound decodes one frame off a node's socket and posts it to the node's
// mailbox. Undecodable frames are counted and dropped — on a real network a
// corrupt datagram is silence, and protocol timeouts own recovery. A full
// mailbox blocks the reader (bounded by SendTimeout), which stops the
// socket read loop — backpressure the peer's TCP stack propagates.
func (l *link) inbound(n *noderun.Node, frame []byte) {
	from, k := binary.Uvarint(frame)
	if k <= 0 {
		l.badFrames.Add(1)
		return
	}
	msg, err := wire.Decode(frame[k:])
	if err != nil {
		l.badFrames.Add(1)
		return
	}
	l.rt.Post(n, ioa.NodeID(from), msg)
}

// Transmit encodes the message and writes the frame to the sender's own
// socket pool. A Send error (failed dial, closed endpoint) is real-network
// silence — the pool redials on the next send and protocol timeouts own
// recovery — but it is counted. The endpoints are snapshotted under the
// lock; the Send itself runs outside it, since it can block for a full
// SendTimeout.
func (l *link) Transmit(from, to *noderun.Node, msg ioa.Message, _ bool) {
	frame := binary.AppendUvarint(make([]byte, 0, 64), uint64(from.ID()))
	frame, err := wire.Append(frame, msg)
	if err != nil {
		// An unregistered message type cannot cross the network; surfacing
		// it as loss would hide the bug, so panic — the wire registry tests
		// make this unreachable for shipped algorithms.
		panic(fmt.Sprintf("netrun: node %d sent unencodable message: %v", from.ID(), err))
	}
	l.mu.RLock()
	src, dst := l.peers[from.ID()], l.peers[to.ID()]
	l.mu.RUnlock()
	if err := src.ep.Send(dst.addr, frame); err != nil {
		l.sendErrs.Add(1)
	}
}

// Crash closes the node's endpoint: frames in flight to it die as real
// network loss, counted by their senders.
func (l *link) Crash(n *noderun.Node) {
	l.mu.RLock()
	ep := l.peers[n.ID()].ep
	l.mu.RUnlock()
	ep.Close()
}

// Recover rejoins the node on a fresh listening endpoint; peers redial the
// new address on their next send.
func (l *link) Recover(n *noderun.Node) error { return l.listen(n) }

// Close closes every endpoint.
func (l *link) Close() {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, p := range l.peers {
		p.ep.Close()
	}
}

// Loss sums the link's own counters and every endpoint's loss accounting.
func (l *link) Loss() (dropped, requeued int) {
	dropped = int(l.badFrames.Load() + l.sendErrs.Load() + l.retiredDropped.Load())
	requeued = int(l.retiredRequeued.Load())
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, p := range l.peers {
		s := p.ep.Stats()
		dropped += int(s.DroppedFull + s.DroppedDead + s.Malformed)
		requeued += int(s.Requeued)
	}
	return dropped, requeued
}

// nodeTransport is the per-node counter set the sampler lifts endpoint
// stats into. Endpoint counters are absolute totals that reset when a
// recovery replaces the endpoint, so the lift mirrors them with monotone
// Raise — the registry series never move backward, at the price of
// undercounting while a recovered endpoint's fresh totals catch up to the
// retired ones.
type nodeTransport struct {
	framesSent, framesRecv   telemetry.Counter
	batchesSent              telemetry.Counter
	bytesSent, bytesRecv     telemetry.Counter
	droppedFull, droppedDead telemetry.Counter
	requeued, malformed      telemetry.Counter
	batchFrames              [len(transport.BatchBucketBounds)]telemetry.Counter
}

// Telemetry registers one transport counter set per node (servers and
// clients both own an endpoint) and returns the per-tick lift.
func (l *link) Telemetry(reg *telemetry.Registry, sl telemetry.Label) func() {
	nt := make(map[ioa.NodeID]*nodeTransport, len(l.peers))
	for _, n := range l.rt.Nodes() {
		nl := telemetry.L("node", strconv.Itoa(int(n.ID())))
		t := &nodeTransport{
			framesSent:  reg.Counter(telemetry.MetricTransportFramesSent, "frames written to peer sockets", sl, nl),
			framesRecv:  reg.Counter(telemetry.MetricTransportFramesRecv, "frames received and handed to the node", sl, nl),
			batchesSent: reg.Counter(telemetry.MetricTransportBatchesSent, "compound envelope flushes (frames/batches = coalescing factor)", sl, nl),
			bytesSent:   reg.Counter(telemetry.MetricTransportBytesSent, "envelope bytes written to peer sockets", sl, nl),
			bytesRecv:   reg.Counter(telemetry.MetricTransportBytesRecv, "envelope bytes received", sl, nl),
			droppedFull: reg.Counter(telemetry.MetricTransportDroppedFull, "frames dropped on a full outbox past SendTimeout", sl, nl),
			droppedDead: reg.Counter(telemetry.MetricTransportDroppedDead, "frames lost to dead connections", sl, nl),
			requeued:    reg.Counter(telemetry.MetricTransportRequeued, "frames re-enqueued onto a redialed connection", sl, nl),
			malformed:   reg.Counter(telemetry.MetricTransportMalformed, "inbound envelopes that failed to split", sl, nl),
		}
		for i, ub := range transport.BatchBucketBounds {
			t.batchFrames[i] = reg.Counter(telemetry.MetricTransportBatchFrames,
				"flushes by frames-per-batch bucket", sl, nl, telemetry.L("le", strconv.Itoa(ub)))
		}
		nt[n.ID()] = t
	}
	return func() {
		l.mu.RLock()
		defer l.mu.RUnlock()
		for id, t := range nt {
			s := l.peers[id].ep.Stats()
			t.framesSent.Raise(s.FramesSent)
			t.framesRecv.Raise(s.FramesReceived)
			t.batchesSent.Raise(s.BatchesSent)
			t.bytesSent.Raise(s.BytesSent)
			t.bytesRecv.Raise(s.BytesReceived)
			t.droppedFull.Raise(s.DroppedFull)
			t.droppedDead.Raise(s.DroppedDead)
			t.requeued.Raise(s.Requeued)
			t.malformed.Raise(s.Malformed)
			for i := range s.BatchFrames {
				t.batchFrames[i].Raise(s.BatchFrames[i])
			}
		}
	}
}
