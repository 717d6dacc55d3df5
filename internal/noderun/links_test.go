package noderun_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/live"
	"repro/internal/netrun"
	"repro/internal/noderun"
	"repro/internal/noderun/linktest"
)

// links opens an interactive session over each backend's link, so the
// runtime tests below run once per link.
var links = []struct {
	name string
	open linktest.Open
}{
	{"live", live.OpenInteractive},
	{"net", func(cl *cluster.Cluster, plan *faults.Plan, cfg noderun.Config) (*noderun.Interactive, error) {
		return netrun.OpenInteractive(cl, plan, netrun.Config{StepDur: cfg.StepDur, OpTimeout: cfg.OpTimeout, Mailbox: cfg.Mailbox, SendTimeout: cfg.SendTimeout})
	}},
}

// TestTimedOutClientRetired loses every message (lossy=1), so the first
// write times out while genuinely started: it stays pending and retires its
// client. The next Invoke at that client must fail fast with
// ErrClientRetired instead of waiting out another timeout on an automaton
// stuck mid-protocol.
func TestTimedOutClientRetired(t *testing.T) {
	const opTimeout = 100 * time.Millisecond
	for _, lk := range links {
		t.Run(lk.name, func(t *testing.T) {
			cl := linktest.DeployABD(t)
			in, err := lk.open(cl, linktest.BuildPlan(t, "lossy=1"), noderun.Config{OpTimeout: opTimeout})
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			w := cl.Writers[0]
			write := ioa.Invocation{Kind: ioa.OpWrite, Value: []byte("v")}
			_, pending, err := in.Invoke(context.Background(), w, write)
			if !pending || err == nil || errors.Is(err, noderun.ErrClientRetired) {
				t.Fatalf("first write: want a pending timeout, got pending=%v err=%v", pending, err)
			}
			if !in.Retired(w) {
				t.Fatal("timed-out client not retired")
			}
			start := time.Now()
			_, pending, err = in.Invoke(context.Background(), w, write)
			if !errors.Is(err, noderun.ErrClientRetired) || pending {
				t.Fatalf("second write: want ErrClientRetired and not pending, got pending=%v err=%v", pending, err)
			}
			if took := time.Since(start); took >= opTimeout {
				t.Fatalf("retired client took %v to fail; want fail-fast", took)
			}
		})
	}
}
