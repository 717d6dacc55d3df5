package netrun_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/netrun"
	"repro/internal/noderun"
	"repro/internal/noderun/linktest"
)

// open starts a TCP-linked session with the runtime knobs the shared checks
// set.
func open(cl *cluster.Cluster, plan *faults.Plan, cfg noderun.Config) (*noderun.Interactive, error) {
	return netrun.OpenInteractive(cl, plan, netrun.Config{StepDur: cfg.StepDur, OpTimeout: cfg.OpTimeout, Mailbox: cfg.Mailbox, SendTimeout: cfg.SendTimeout})
}

// TestDelayTimersStoppedOnClose runs the shared fault-gate timer check
// (delay and outage holds) over the TCP link, whose held messages would
// otherwise fire into closed sockets.
func TestDelayTimersStoppedOnClose(t *testing.T) {
	linktest.DelayTimersStoppedOnClose(t, open)
}

// TestPostDropsAfterSendTimeout wedges one server's mailbox on the TCP
// link, where the socket reader does the blocked post: overflowing frames
// must drop after SendTimeout and be counted in TransportDropped.
func TestPostDropsAfterSendTimeout(t *testing.T) {
	linktest.PostDropsAfterSendTimeout(t, open)
}
