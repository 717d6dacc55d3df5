// Package linktest holds the runtime checks every noderun link must pass.
// Each check drives an Interactive session opened over the link under test,
// so a link package runs them against its own wiring of the shared runtime:
//
//	func TestDelayTimersStoppedOnClose(t *testing.T) {
//		linktest.DelayTimersStoppedOnClose(t, open)
//	}
package linktest

import (
	"context"
	"testing"
	"time"

	"repro/internal/abd"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/noderun"
)

// Open starts an interactive session of the cluster over the link under
// test, with the runtime tuned by cfg.
type Open func(cl *cluster.Cluster, plan *faults.Plan, cfg noderun.Config) (*noderun.Interactive, error)

// DeployABD returns the three-server (f=1) multi-writer ABD cluster the
// checks run on: one writer, one reader.
func DeployABD(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := abd.Deploy(abd.Options{Servers: 3, F: 1, Writers: 1, Readers: 1, MultiWriter: true})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// BuildPlan parses a fault scenario and builds it for DeployABD's cluster.
func BuildPlan(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	sc, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sc.Build(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// DelayTimersStoppedOnClose schedules long fault-gate timers — every
// message delayed, or held behind an outage window, seconds into the future
// with a short StepDur — and stops the runtime while they are pending: stop
// must cancel and forget them all. Untracked time.AfterFunc calls kept
// firing into the dead runtime (and, on the net link, its closed sockets).
func DelayTimersStoppedOnClose(t *testing.T, open Open) {
	holds := []struct {
		name string
		plan func(t *testing.T) *faults.Plan
	}{
		{"delay", func(t *testing.T) *faults.Plan { return BuildPlan(t, "delay=2000:4000") }}, // 2-4s of wall delay at 1ms steps
		{"outage", func(*testing.T) *faults.Plan {
			return &faults.Plan{Outages: []faults.Outage{{Start: 0, End: 10000, Symmetric: true}}}
		}},
	}
	for _, hold := range holds {
		t.Run(hold.name, func(t *testing.T) {
			cl := DeployABD(t)
			in, err := open(cl, hold.plan(t), noderun.Config{StepDur: time.Millisecond, OpTimeout: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			// The write's initial sends are all held, so the op cannot
			// finish; the short timeout just lets the timers register.
			_, pending, err := in.Invoke(context.Background(), cl.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: []byte("v")})
			if !pending || err == nil {
				t.Fatalf("expected a started, timed-out op (pending=%v err=%v)", pending, err)
			}
			if n, _, _ := in.Timers(); n == 0 {
				t.Fatal("no fault-gate timers pending; the plan should have held every send")
			}
			in.Close()
			n, tracked, stopped := in.Timers()
			if tracked {
				t.Fatalf("%d timers still tracked after stop", n)
			}
			if !stopped {
				t.Fatal("stop did not mark the runtime stopped")
			}
		})
	}
}

// stalled wraps a server automaton so that every delivery blocks until
// release is closed: the node loop wedges inside its first delivery and
// stops draining its mailbox.
type stalled struct {
	ioa.Node
	release <-chan struct{}
}

func (s *stalled) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects {
	<-s.release
	return s.Node.Deliver(from, msg)
}

func (s *stalled) Clone() ioa.Node { return &stalled{Node: s.Node.Clone(), release: s.release} }

// withStalledServer rebuilds DeployABD's cluster with server id wrapped in
// stalled.
func withStalledServer(t *testing.T, cl *cluster.Cluster, id ioa.NodeID, release <-chan struct{}) *cluster.Cluster {
	t.Helper()
	sys := ioa.NewSystem()
	for _, sid := range cl.Servers {
		n, err := cl.Automaton(sid)
		if err != nil {
			t.Fatal(err)
		}
		if sid == id {
			n = &stalled{Node: n, release: release}
		}
		if err := sys.AddServer(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, cid := range append(append([]ioa.NodeID(nil), cl.Writers...), cl.Readers...) {
		c, err := cl.ClientAutomaton(cid)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.AddClient(c); err != nil {
			t.Fatal(err)
		}
	}
	out := *cl
	out.Sys = sys
	return &out
}

// PostDropsAfterSendTimeout wedges one server's node loop inside a
// delivery, so its mailbox stops draining, and keeps writing through the
// other two (still a quorum). Every message to the wedged server beyond the
// one it is stuck on and the mailbox's capacity must be dropped within
// roughly SendTimeout and counted in FaultStats.TransportDropped — not park
// goroutines, block the link for good, or vanish silently.
func PostDropsAfterSendTimeout(t *testing.T, open Open) {
	const (
		mailbox     = 2
		sendTimeout = 50 * time.Millisecond
		writes      = 4
	)
	base := DeployABD(t)
	release := make(chan struct{})
	cl := withStalledServer(t, base, base.Servers[len(base.Servers)-1], release)
	in, err := open(cl, nil, noderun.Config{Mailbox: mailbox, SendTimeout: sendTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	defer close(release) // unwedge the loop before Close joins it

	// Each multi-writer ABD write sends a query and a put to every server.
	for i := 0; i < writes; i++ {
		if _, _, err := in.Invoke(context.Background(), cl.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: []byte{byte(i)}}); err != nil {
			t.Fatalf("write %d with one server wedged: %v", i, err)
		}
	}
	// One message is stuck in the wedged delivery and the mailbox holds
	// mailbox more; the rest must drop.
	want := 2*writes - 1 - mailbox
	deadline := time.Now().Add(time.Duration(want) * time.Second) // each drop must resolve around SendTimeout
	got := in.FaultStats().TransportDropped
	for got < want && time.Now().Before(deadline) {
		time.Sleep(sendTimeout / 5)
		got = in.FaultStats().TransportDropped
	}
	if got < want {
		t.Fatalf("TransportDropped = %d after %v, want %d; posts to a wedged mailbox must drop after SendTimeout", got, time.Duration(want)*time.Second, want)
	}
	time.Sleep(2 * sendTimeout)
	if got := in.FaultStats().TransportDropped; got != want {
		t.Fatalf("TransportDropped = %d, want %d", got, want)
	}
}
