// Package noderun is the node runtime both wall-clock backends share: every
// node automaton runs on its own goroutine with a bounded mailbox, and
// wall-clock time replaces the simulator's discrete steps. The node automata
// are exactly the ones `internal/abd`, `internal/cas` and `internal/coded`
// deploy — the cluster is only the registry; the runtime clones the automata
// out of it and drives them itself, so the same deployment runs unchanged on
// any backend.
//
// The runtime owns everything about a node except how a message reaches its
// peer: the mailbox and loop, the invocation lifecycle, the fault gate,
// crash/recovery/checkpoint, storage metering, the history feed and the
// telemetry sampler. A Link carries the messages that pass the gate;
// `internal/live` links nodes through their in-process mailboxes,
// `internal/netrun` through TCP sockets.
//
// The contract with the simulator backend (DESIGN.md section 8):
//
//   - The simulator is the determinism oracle: same seed, same schedule,
//     byte-identical histories and fingerprints. The runtime makes NO such
//     promise — schedules here are an accident of goroutine timing, and two
//     runs of the same spec produce different histories.
//   - Safety is checked the same way on both: a batch run records every
//     operation through one ioa.OpFeed, whose clock stamps invocations and
//     responses on the node goroutines and which releases settled operations
//     in invocation order into a sink — an online checker, or an ioa.History
//     for the internal/consistency checkers. A history the runtime produced
//     must pass the same condition the algorithm guarantees on the
//     simulator.
//   - Faults: drop and delay rules of a faults.Plan are reused verbatim —
//     MessageFate is consulted at send time with a global send sequence
//     number, exactly as the kernel does, with delay steps scaled to wall
//     time by Config.StepDur. Outage windows and scheduled crash/recovery
//     events, positioned in kernel steps, run against the same step clock
//     via a faults.WallClock (DESIGN.md section 12): a partitioned link's
//     messages are held until the window's wall-clock boundary, a crashed
//     node's goroutine stops and its volatile state (mailbox, queues, the
//     automaton itself) is discarded, and a scheduled recovery restarts the
//     node from its last durable checkpoint (ioa.Recoverable). Recovery for
//     a node without the Snapshot/Restore surface is the one remaining
//     unsupported combination, rejected with faults.ErrUnsupported.
//   - Flow control (DESIGN.md section 11): mailboxes are bounded and a post
//     to a full mailbox blocks up to Config.SendTimeout before the message
//     is dropped and counted in FaultStats.TransportDropped — message loss
//     the asynchronous model already admits. A node loop blocked posting to
//     a peer keeps siphoning its own mailbox, so mutually full mailboxes
//     cannot wedge (only the in-process link posts from a node loop).
//   - Liveness is a verdict, not a hang: every operation carries a timeout,
//     and a run whose operations time out under a fault plan reports
//     Quiescent with the timed-out operations pending in the history (their
//     effects may still land — the atomicity checker's standard completion
//     semantics cover exactly this).
package noderun

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/telemetry"
)

// Config tunes the runtime. The zero value selects the defaults.
type Config struct {
	// StepDur converts a fault plan's steps into wall-clock time (default
	// 100µs): delay steps scale to holds of delay*StepDur (delay=1:24 thus
	// holds messages up to ~2.4ms), and outage windows [Start, End) cover
	// wall-clock [Start*StepDur, End*StepDur) from the run's start.
	StepDur time.Duration
	// OpTimeout bounds each operation's completion (default 5s). A client
	// whose operation times out is retired — its automaton may still be
	// waiting on lost messages — and the operation stays pending in the
	// history unless its response arrives before shutdown.
	OpTimeout time.Duration
	// Mailbox is the per-node buffered channel capacity (default 128).
	Mailbox int
	// SendTimeout bounds how long a sender blocks on a full mailbox (or, on
	// the net link, a full transport outbox) before the message is dropped
	// and counted (default 1s). This is the backpressure window: under
	// sustained overload, senders slow to the receiver's drain rate instead
	// of growing unbounded queues.
	SendTimeout time.Duration
	// Pipeline is the number of operations each batch driver keeps in
	// flight per client (default 1: one at a time, the pre-pipelining
	// behavior). The node queues invocations and starts each only when its
	// predecessor responds, so the client automaton still holds one
	// operation at a time and per-client program order is preserved;
	// recorded operation intervals never overlap within a client.
	Pipeline int
	// Checkpoint is the durable-state snapshot interval for nodes the fault
	// plan schedules a recovery for (default 5ms). A recovering node
	// restarts from its last checkpoint; state mutated after it is lost,
	// exactly the crash-recovery model the paper's storage bounds assume.
	Checkpoint time.Duration
	// Sink receives a batch run's operations: Run registers each with an
	// ioa.OpFeed at invocation, and the feed releases them into the sink in
	// invocation order as they settle. With a Sink the result's History
	// carries only the pending tail (the sink has absorbed everything else);
	// without one the feed fills a fresh ioa.History, which becomes the
	// result's History. Feed an OnlineChecker here to verify the run while
	// it executes. Sink applies to Run only: an interactive session records
	// nothing, since its caller keeps the checked record.
	Sink ioa.HistorySink
	// SyncOps, when positive, installs periodic quiescence points in the
	// batch drivers: after every SyncOps issued operations (globally, across
	// all drivers), every driver drains its in-flight operations and they
	// meet at a barrier before any issues again. Each sync is a moment with
	// nothing in flight — a clean cut in the recorded history — so an online
	// checker fed through Sink is guaranteed a window-retirement opportunity
	// at least once per sync, bounding its peak memory by construction
	// rather than by the scheduler happening to align the clients' idle
	// gaps. Zero disables syncing; the store engine's online-check mode
	// (store.Options.OnlineCheck) defaults it to the retirement window, and
	// a negative value forces it off even there.
	SyncOps int
	// Telemetry, when it carries a registry, streams run metrics into it:
	// per-node storage-bit gauges sampled on a ticker next to the paper's
	// Theorem 4.1/5.1 bounds, the link's own counters (per-node transport
	// counters on the net link), op counters/latency histograms from the
	// batch drivers, online-checker lag gauges, and sampled op-lifecycle
	// spans. nil (the default) records nothing and costs nothing on the hot
	// path.
	Telemetry *telemetry.RunTelemetry
}

func (c Config) withDefaults() Config {
	if c.StepDur <= 0 {
		c.StepDur = 100 * time.Microsecond
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 5 * time.Second
	}
	if c.Mailbox <= 0 {
		c.Mailbox = 128
	}
	if c.SendTimeout <= 0 {
		c.SendTimeout = time.Second
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 1
	}
	if c.Checkpoint <= 0 {
		c.Checkpoint = 5 * time.Millisecond
	}
	return c
}

// Link is the backend-specific half of a runtime: how a message that passed
// the fault gate reaches its peer, and the link side of crash and recovery.
type Link interface {
	// Transmit carries msg from one node to another. The fault gate has
	// already applied the plan's drop, delay and outage rules. inLoop
	// reports whether the caller is from's own node loop (which may siphon
	// its mailbox while blocked) rather than a delay or outage timer.
	Transmit(from, to *Node, msg ioa.Message, inLoop bool)
	// Crash runs after a crashed node's loop has exited.
	Crash(n *Node)
	// Recover runs before a recovering node's new loop starts; an error
	// leaves the node down.
	Recover(n *Node) error
	// Close releases the link at shutdown, before the node loops are joined.
	Close()
	// Loss reports the messages the link itself lost and requeued; they
	// fold into FaultStats.TransportDropped and TransportRequeued.
	Loss() (dropped, requeued int)
	// Telemetry registers the link's own series under the shard label and
	// returns the hook the sampler calls every tick, or nil.
	Telemetry(reg *telemetry.Registry, shard telemetry.Label) (sample func())
}

// Backend names a link and builds it for a runtime whose nodes exist but
// have not started.
type Backend struct {
	// Name prefixes the runtime's errors ("live", "netrun").
	Name   string
	Attach func(rt *Runtime) (Link, error)
}

// drainBatch bounds how many extra mailbox events a node loop handles per
// wakeup: coalescing amortizes the scheduler round trip under load, the
// bound keeps one hot node from running unpreempted forever.
const drainBatch = 32

// PlanSupported reports whether a fault plan is well-formed for the
// runtime. Every fault class runs here — drop/delay rules, outage windows
// and scheduled crash/recovery events, the step-indexed ones mapped onto
// wall time by a faults.WallClock — so this only validates the plan's
// shape. The one genuinely unsupported combination, scheduled recovery of a
// node without the ioa.Recoverable surface, needs the deployed automata to
// detect and is rejected by the runtime itself with faults.ErrUnsupported.
func PlanSupported(p *faults.Plan) error {
	if p == nil {
		return nil
	}
	return p.Validate()
}

// event is one mailbox entry: a message delivery, or (inv != nil) an
// operation invocation injected by the driver. Both are handled on the
// node's own goroutine, so automaton state is goroutine-confined.
type event struct {
	from ioa.NodeID
	msg  ioa.Message
	inv  *invokeEvent
}

// Invocation lifecycle states. The single atomic state arbitrates the race
// between the node loop starting a queued invocation and a driver abandoning
// it on timeout: exactly one of the two CAS transitions wins, so an
// abandoned invocation either never ran at all or is a genuine pending op.
const (
	invQueued    int32 = iota // in a mailbox or node queue, not yet started
	invStarted                // the automaton has been invoked
	invAbandoned              // the driver gave up before it started
)

type invokeEvent struct {
	inv   ioa.Invocation
	done  chan []byte     // buffered 1; receives the response value when recorded
	state atomic.Int32    // invQueued -> invStarted (node) | invAbandoned (driver)
	span  *telemetry.Span // sampled lifecycle trace; nil for unsampled ops
}

// Node is everything a node goroutine owns: the automaton clone, its
// mailbox, the client's outstanding operation and the server storage
// maxima. Only the node's own goroutine touches these fields between start
// and join — across a scheduled crash, ownership passes to the goroutine
// firing the WallClock's node events (which joins the loop first) and back
// to the next incarnation's loop.
type Node struct {
	id   ioa.NodeID
	node ioa.Node
	mb   chan event // one channel for the node's whole lifetime, across incarnations

	pendingDone chan []byte    // outstanding op's response channel; nil when no op is in progress
	pendingTk   *ioa.Ticket    // outstanding op's feed ticket; nil when nothing records
	invq        []*invokeEvent // pipelined invocations awaiting their turn
	deferred    []event        // events siphoned off mb while blocked on a peer's full mailbox

	meter            ioa.StorageMeter // nil unless the node reports storage; loop-owned (rewritten on recovery)
	metered          bool             // set once at construction: the automaton type reports storage
	curBits, maxBits atomic.Int64     // written by the node loop, readable mid-run
	pendingSpan      *telemetry.Span  // outstanding op's trace span; loop-owned

	// Crash-recovery machinery (DESIGN.md section 12). crashCh and loopDone
	// belong to one incarnation of the node loop; the WallClock goroutine
	// replaces them only between incarnations (after closing crashCh and
	// joining loopDone), so the loop reads them race-free.
	init     ioa.Node    // pristine automaton recovery restarts from; nil when no recovery is scheduled
	ckpt     bool        // the plan schedules a recovery: checkpoint durable state
	down     atomic.Bool // true between a crash and its recovery
	crashCh  chan struct{}
	loopDone chan struct{}

	snapMu  sync.Mutex
	snap    ioa.NodeSnapshot // last durable checkpoint (written by the loop, read at recovery)
	hasSnap bool
}

// ID returns the node's identifier.
func (n *Node) ID() ioa.NodeID { return n.id }

// Runtime drives one cluster's automata concurrently over a Link.
type Runtime struct {
	name  string
	cfg   Config
	plan  *faults.Plan
	wc    *faults.WallClock // step clock + crash/recovery event schedule
	link  Link
	nodes map[ioa.NodeID]*Node
	order []*Node // nodes in ID order

	feed *ioa.OpFeed   // records a batch run's operations; nil in an interactive session
	seq  atomic.Uint64 // global send sequence number for MessageFate

	tracer *telemetry.Tracer // sampled op-lifecycle spans; nil when telemetry is off

	drops, delayed, delaySteps atomic.Int64
	overflow                   atomic.Int64 // messages dropped after SendTimeout on a full mailbox
	dead                       atomic.Int64 // messages lost at a crashed node
	checkpoints                atomic.Int64 // durable-state snapshots taken

	timerMu sync.Mutex
	timers  map[*time.Timer]struct{} // pending delay/outage timers, stopped at shutdown
	stopped bool

	done chan struct{}
	wg   sync.WaitGroup
}

// newRuntime clones every automaton out of the cluster registry, prepares
// (but does not start) a node goroutine per automaton, and attaches the
// backend's link. The cluster itself is left untouched — its simulator
// System remains pristine.
func newRuntime(b Backend, cl *cluster.Cluster, plan *faults.Plan, cfg Config) (*Runtime, error) {
	if err := PlanSupported(plan); err != nil {
		return nil, err
	}
	rt := &Runtime{
		name:   b.Name,
		cfg:    cfg,
		plan:   plan,
		nodes:  make(map[ioa.NodeID]*Node),
		timers: make(map[*time.Timer]struct{}),
		done:   make(chan struct{}),
	}
	if cfg.Telemetry.Active() {
		rt.tracer = cfg.Telemetry.Registry.Tracer()
	}
	for _, id := range cl.Sys.NodeIDs() {
		n, err := cl.Automaton(id)
		if err != nil {
			return nil, err
		}
		ns := &Node{
			id:       id,
			node:     n.Clone(),
			mb:       make(chan event, cfg.Mailbox),
			crashCh:  make(chan struct{}),
			loopDone: make(chan struct{}),
		}
		ns.meter, _ = ns.node.(ioa.StorageMeter)
		ns.metered = ns.meter != nil
		rt.nodes[id] = ns
		rt.order = append(rt.order, ns)
	}
	if plan != nil {
		for _, id := range plan.RecoveredNodes() {
			ns := rt.nodes[id]
			if ns == nil {
				return nil, fmt.Errorf("%s: fault plan schedules recovery of unknown node %d", rt.name, id)
			}
			if _, ok := ns.node.(ioa.Recoverable); !ok {
				return nil, fmt.Errorf("%s: %w: node %d (%T) is scheduled to recover but has no Snapshot/Restore surface",
					rt.name, faults.ErrUnsupported, id, ns.node)
			}
			ns.init = ns.node.Clone()
			ns.ckpt = true
		}
	}
	rt.wc = faults.NewWallClock(plan, cfg.StepDur)
	link, err := b.Attach(rt)
	if err != nil {
		return nil, err
	}
	rt.link = link
	return rt, nil
}

// Nodes returns the runtime's nodes in ID order.
func (rt *Runtime) Nodes() []*Node { return rt.order }

// start launches one goroutine per node, then starts the wall clock: its
// epoch is stamped after every loop is running, so a crash scheduled at step
// 0 still finds a live incarnation to stop — and it stops it before start
// returns, ahead of the first operation.
func (rt *Runtime) start() {
	for _, ns := range rt.order {
		rt.wg.Add(1)
		go rt.loop(ns)
	}
	rt.wc.Start(faults.NodeHooks{Crash: rt.crashNode, Recover: rt.recoverNode})
}

// stop shuts the node goroutines down, stops every pending delay timer,
// closes the link and joins everything. The wall clock stops first: after
// wc.Stop returns no crash/recovery hook is in flight, so no new loop
// goroutine can race wg.Wait. After stop returns, the storage maxima are
// final and no timer from this run remains scheduled.
func (rt *Runtime) stop() {
	rt.wc.Stop()
	close(rt.done)
	rt.timerMu.Lock()
	rt.stopped = true
	for t := range rt.timers {
		t.Stop()
	}
	rt.timers = nil
	rt.timerMu.Unlock()
	rt.link.Close()
	rt.wg.Wait()
}

// after schedules f to run once after d, tracking the timer so stop can
// cancel it. Untracked time.AfterFunc calls would leak every in-flight
// delay timer past Close — harmless-looking until a short run with a long
// delay tail keeps firing into a dead runtime.
func (rt *Runtime) after(d time.Duration, f func()) {
	rt.timerMu.Lock()
	defer rt.timerMu.Unlock()
	if rt.stopped {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		// The callback can only fire after the registration below released
		// the mutex, so t is always the registered timer here.
		rt.timerMu.Lock()
		delete(rt.timers, t)
		rt.timerMu.Unlock()
		select {
		case <-rt.done:
		default:
			f()
		}
	})
	rt.timers[t] = struct{}{}
}

// loop is one node goroutine — one incarnation of the node: it handles its
// first event, then drains up to drainBatch more without going back to the
// scheduler — under load a node wakes once per burst instead of once per
// message. Events the node siphoned off its own mailbox while blocked
// posting (see PostFrom) are handled first: they arrived before anything
// still queued, so per-link FIFO holds. A checkpointing node additionally
// snapshots its durable state on a ticker — on its own goroutine, so
// Snapshot never races Deliver/Invoke — with one initial checkpoint before
// any event, so a crash at any point has an image to recover from.
func (rt *Runtime) loop(ns *Node) {
	crashed, exited := ns.crashCh, ns.loopDone
	defer close(exited)
	defer rt.wg.Done()
	var tick <-chan time.Time
	if ns.ckpt {
		rt.checkpoint(ns)
		t := time.NewTicker(rt.cfg.Checkpoint)
		defer t.Stop()
		tick = t.C
	}
	for {
		if len(ns.deferred) > 0 {
			select {
			case <-rt.done:
				return
			case <-crashed:
				return
			default:
			}
			ev := ns.deferred[0]
			ns.deferred = ns.deferred[1:]
			rt.handle(ns, ev)
			continue
		}
		select {
		case <-rt.done:
			return
		case <-crashed:
			return
		case <-tick:
			rt.checkpoint(ns)
		case ev := <-ns.mb:
			rt.handle(ns, ev)
			for i := 0; i < drainBatch && len(ns.deferred) == 0; i++ {
				select {
				case ev := <-ns.mb:
					rt.handle(ns, ev)
				default:
					i = drainBatch
				}
			}
		}
	}
}

// checkpoint images the node's durable state under the snapshot mutex, where
// a later recovery reads it.
func (rt *Runtime) checkpoint(ns *Node) {
	r, ok := ns.node.(ioa.Recoverable)
	if !ok {
		return
	}
	snap := r.Snapshot()
	ns.snapMu.Lock()
	ns.snap, ns.hasSnap = snap, true
	ns.snapMu.Unlock()
	rt.checkpoints.Add(1)
}

// crashNode stops a node mid-run: runs on the WallClock's event goroutine,
// or inside start for a crash at step 0. The incarnation's loop is signalled
// and joined, the link's side of the node is crashed (the net link closes
// its socket), then the node's volatile state — everything but the
// checkpoint — is discarded: queued mailbox events, siphoned events,
// not-yet-started invocations (abandoned, so their drivers see "never
// happened"). An operation the automaton held mid-protocol stays pending in
// the history forever, which is exactly what the consistency checkers'
// completion semantics expect of an op lost to a crash.
func (rt *Runtime) crashNode(id ioa.NodeID) {
	ns := rt.nodes[id]
	if ns == nil || ns.down.Load() {
		return
	}
	ns.down.Store(true)
	close(ns.crashCh)
	<-ns.loopDone
	rt.link.Crash(ns)
	rt.discardVolatile(ns)
}

// discardVolatile empties the node's mailbox and queues between incarnations.
// Only called with no loop goroutine running, so the loop-owned fields are
// safe to touch.
func (rt *Runtime) discardVolatile(ns *Node) {
	for {
		select {
		case ev := <-ns.mb:
			if ev.inv != nil {
				ev.inv.state.CompareAndSwap(invQueued, invAbandoned)
			}
		default:
			ns.deferred = nil
			for _, ie := range ns.invq {
				ie.state.CompareAndSwap(invQueued, invAbandoned)
			}
			ns.invq = nil
			if ns.pendingTk != nil {
				// The op dies with the crash: permanently pending.
				ns.pendingTk.Abandon()
				ns.pendingTk = nil
			}
			ns.pendingDone = nil
			return
		}
	}
}

// recoverNode restarts a crashed node from its last durable checkpoint: runs
// where crashNode does, strictly after the node's crash (the clock fires all
// node events in schedule order). The new
// incarnation is a pristine clone of the deployed automaton with the
// checkpoint restored onto it — volatile state since the checkpoint is lost,
// the durable state provably survives. Messages that raced the crash die
// with it; the link then rejoins the node (the net link on a fresh socket).
func (rt *Runtime) recoverNode(id ioa.NodeID) {
	ns := rt.nodes[id]
	if ns == nil || !ns.down.Load() || ns.init == nil {
		return
	}
	node := ns.init.Clone()
	ns.snapMu.Lock()
	snap, ok := ns.snap, ns.hasSnap
	ns.snapMu.Unlock()
	if ok {
		// Same automaton type by construction; Restore cannot reject it.
		if err := node.(ioa.Recoverable).Restore(snap); err != nil {
			return // leave the node down rather than rejoin with bogus state
		}
	}
	rt.discardVolatile(ns)
	if err := rt.link.Recover(ns); err != nil {
		return // no link, no rejoin; the node stays down
	}
	ns.node = node
	ns.meter, _ = node.(ioa.StorageMeter)
	ns.crashCh = make(chan struct{})
	ns.loopDone = make(chan struct{})
	ns.down.Store(false)
	rt.wg.Add(1)
	go rt.loop(ns)
}

// handle processes one mailbox event on the node's goroutine. Invocations
// are queued and started only while no operation is pending, so a pipelining
// driver may submit several ops while the automaton still holds one at a
// time; deliveries go straight to the automaton.
func (rt *Runtime) handle(ns *Node, ev event) {
	if ev.inv != nil {
		ns.invq = append(ns.invq, ev.inv)
	} else {
		rt.apply(ns, ns.node.Deliver(ev.from, ev.msg))
	}
	// Start queued invocations while the client is free. Normally at most
	// one starts; the loop only cascades when an invocation responds
	// immediately (e.g. a degenerate automaton), or skips abandoned entries.
	for ns.pendingDone == nil && len(ns.invq) > 0 {
		ie := ns.invq[0]
		ns.invq = ns.invq[1:]
		if !ie.state.CompareAndSwap(invQueued, invStarted) {
			continue // abandoned before it started: it never happened
		}
		ie.span.Mark(telemetry.StageStart)
		ns.pendingSpan = ie.span
		if rt.feed != nil {
			ns.pendingTk = rt.feed.Begin(ns.id, ie.inv.Kind, ie.inv.Value)
		}
		ns.pendingDone = ie.done
		rt.apply(ns, ns.node.(ioa.Client).Invoke(ie.inv))
	}
}

// apply records a response (the feed stamps it before the effects' sends
// are dispatched: the response is determined by then, so shrinking the
// recorded operation interval to that point is sound for the checkers — the
// linearization point of a quorum operation precedes response
// determination), dispatches the sends, and refreshes the storage meters.
func (rt *Runtime) apply(ns *Node, eff ioa.Effects) {
	if eff.Response != nil && ns.pendingDone != nil {
		out := eff.Response.Value
		if ns.pendingTk != nil {
			ns.pendingTk.Complete(out)
			ns.pendingTk = nil
		}
		ns.pendingSpan.Mark(telemetry.StageEffect)
		ns.pendingSpan = nil
		ns.pendingDone <- out // buffered, single outstanding op: never blocks
		ns.pendingDone = nil
	}
	for _, send := range eff.Sends {
		rt.send(ns, send)
	}
	if ns.meter != nil {
		bits := int64(ns.meter.StorageBits())
		ns.curBits.Store(bits)
		ioa.RaiseMax(&ns.maxBits, bits)
	}
}

// send is the fault gate's first half: it applies the plan's drop/delay
// rules before the message reaches the link. Sequence numbers are global, as
// in the kernel, so the same plan seed draws from the same decision stream.
func (rt *Runtime) send(from *Node, s ioa.Send) {
	to := rt.nodes[s.To]
	if to == nil {
		return
	}
	if rt.plan != nil {
		seq := rt.seq.Add(1) - 1
		drop, delay := rt.plan.MessageFate(from.id, s.To, seq, rt.wc.Step())
		if drop {
			rt.drops.Add(1)
			return
		}
		if delay > 0 {
			rt.delayed.Add(1)
			rt.delaySteps.Add(int64(delay))
			rt.after(time.Duration(delay)*rt.cfg.StepDur, func() {
				rt.dispatch(from, to, s.Msg, false)
			})
			return
		}
	}
	rt.dispatch(from, to, s.Msg, true)
}

// dispatch is the fault gate's second half: it gates the message on the
// plan's outage windows at the current step, then hands it to the link. A
// blocked message is held — not dropped — and re-dispatched at the next
// outage boundary, re-checking then in case windows abut; held messages are
// accounted as delays of (boundary - now) steps.
func (rt *Runtime) dispatch(from, to *Node, msg ioa.Message, inLoop bool) {
	if hold, steps := rt.wc.Hold(from.id, to.id); hold > 0 {
		rt.delayed.Add(1)
		rt.delaySteps.Add(int64(steps))
		rt.after(hold, func() { rt.dispatch(from, to, msg, false) })
		return
	}
	rt.link.Transmit(from, to, msg, inLoop)
}

// Post enqueues msg, sent by node from, in the mailbox of node to. It is
// for callers outside any node loop, such as a transport reader. The fast
// path is a non-blocking channel send; a full mailbox blocks the caller up
// to SendTimeout, after which the message is dropped and counted. It
// reports whether the message was enqueued.
func (rt *Runtime) Post(to *Node, from ioa.NodeID, msg ioa.Message) bool {
	return rt.postFrom(nil, to, event{from: from, msg: msg}, rt.cfg.SendTimeout)
}

// PostFrom enqueues msg, sent by node from, in the mailbox of node to, as
// the in-memory link does. When inLoop, the caller is from's own node loop,
// which keeps siphoning its own mailbox while blocked on a full one (see
// postFrom). A message addressed to a crashed node is lost and counted:
// nothing is listening.
func (rt *Runtime) PostFrom(from, to *Node, msg ioa.Message, inLoop bool) {
	if to.down.Load() {
		rt.dead.Add(1)
		return
	}
	var sender *Node
	if inLoop {
		sender = from
	}
	rt.postFrom(sender, to, event{from: from.id, msg: msg}, rt.cfg.SendTimeout)
}

// postFrom enqueues with backpressure and deadlock avoidance. A node loop
// (sender != nil) blocked on a peer's full mailbox keeps siphoning its OWN
// mailbox into its deferred queue, so a cycle of mutually full mailboxes
// (client blocked on server, server blocked on that client's responses)
// cannot wedge: every blocked node keeps consuming, some send always
// completes, and the system self-regulates to the slowest consumer instead
// of spawning a goroutine per overflowing message. Only when the deadline
// expires with the peer still full is the event dropped and counted —
// message loss the unordered lossy channel model already admits. Per-link
// FIFO is preserved: siphoned events are handled before anything still in
// the mailbox, in arrival order.
func (rt *Runtime) postFrom(sender, to *Node, ev event, timeout time.Duration) bool {
	select {
	case to.mb <- ev:
		return true
	case <-rt.done:
		return false
	default:
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		if sender == nil {
			select {
			case to.mb <- ev:
				return true
			case <-t.C:
				rt.overflow.Add(1)
				return false
			case <-rt.done:
				return false
			}
		}
		select {
		case to.mb <- ev:
			return true
		case own := <-sender.mb:
			sender.deferred = append(sender.deferred, own)
		case <-sender.crashCh:
			// The sender's incarnation was crashed while blocked here; the
			// undelivered message dies with it, and the loop above notices
			// the crash as soon as this send unwinds.
			rt.dead.Add(1)
			return false
		case <-t.C:
			rt.overflow.Add(1)
			return false
		case <-rt.done:
			return false
		}
	}
}

// pendingOp is a handle on one asynchronously submitted invocation.
type pendingOp struct {
	ie     *invokeEvent
	failed bool // the post was dropped; the op never reached the node
}

// invokeAsync submits an operation at a client and returns immediately; the
// node starts it when every earlier invocation at that client has responded.
// Pipelining drivers keep several handles open per client.
func (rt *Runtime) invokeAsync(client ioa.NodeID, inv ioa.Invocation) *pendingOp {
	ns := rt.nodes[client]
	ie := &invokeEvent{inv: inv, done: make(chan []byte, 1)}
	if rt.tracer != nil {
		ie.span = rt.tracer.Begin(inv.Kind.String())
	}
	p := &pendingOp{ie: ie}
	// Invocations get the full op timeout to enqueue, not just SendTimeout:
	// a client mailbox saturated by protocol traffic clears as the node
	// drains, and dropping the invocation early would under-run fault-free
	// workloads that are merely overloaded.
	if !rt.postFrom(nil, ns, event{inv: ie}, rt.cfg.OpTimeout) {
		ie.state.Store(invAbandoned)
		p.failed = true
		ie.span.End()
	} else {
		ie.span.Mark(telemetry.StageQueue)
	}
	return p
}

// wait blocks for the response, the timeout, or ctx cancellation. It returns
// the response value, whether the operation actually started (a started but
// incomplete op is genuinely pending: it may still take effect and must stay
// pending in any checked history; an unstarted one never happened), and
// whether it completed.
func (p *pendingOp) wait(ctx context.Context, timeout time.Duration) (out []byte, started, ok bool) {
	if p.failed {
		return nil, false, false
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case out := <-p.ie.done:
		p.ie.span.Mark(telemetry.StageComplete)
		p.ie.span.End()
		return out, true, true
	case <-t.C:
	case <-ctx.Done():
	}
	if p.ie.state.CompareAndSwap(invQueued, invAbandoned) {
		p.ie.span.End()
		return nil, false, false // never started; the node will skip it
	}
	// Already started — it may even have completed in the race window.
	select {
	case out := <-p.ie.done:
		p.ie.span.Mark(telemetry.StageComplete)
		p.ie.span.End()
		return out, true, true
	default:
		p.ie.span.End()
		return nil, true, false
	}
}

// Wait adapts pendingOp to the shared driver's workload.Flight.
func (p *pendingOp) Wait(timeout time.Duration) bool {
	_, _, ok := p.wait(context.Background(), timeout)
	return ok
}

// Abandon implements workload.Flight: it cancels an invocation that has not
// started and reports whether it did; a started invocation is left to run.
func (p *pendingOp) Abandon() bool {
	if p.failed || p.ie.state.CompareAndSwap(invQueued, invAbandoned) {
		p.ie.span.End()
		return true
	}
	return false
}

// faultStats snapshots the fault counters in kernel form. Backpressure
// drops (mailbox full past SendTimeout), messages lost at a crashed node and
// the link's own loss are transport-level, not plan decisions, so they land
// in TransportDropped; outage holds fold into the delay counters.
func (rt *Runtime) faultStats() ioa.FaultStats {
	dropped, requeued := rt.link.Loss()
	return ioa.FaultStats{
		Drops:             int(rt.drops.Load()),
		DelayedMessages:   int(rt.delayed.Load()),
		DelayStepsTotal:   int(rt.delaySteps.Load()),
		Crashes:           rt.wc.Crashes(),
		Recoveries:        rt.wc.Recoveries(),
		Checkpoints:       int(rt.checkpoints.Load()),
		TransportDropped:  int(rt.overflow.Load()+rt.dead.Load()) + dropped,
		TransportRequeued: requeued,
	}
}
