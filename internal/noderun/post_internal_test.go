package noderun

import (
	"testing"
	"time"

	"repro/internal/ioa"
	"repro/internal/telemetry"
)

// nopLink is a Link that carries nothing: the mailbox tests below post
// directly and never start a node loop.
type nopLink struct{}

func (nopLink) Transmit(from, to *Node, msg ioa.Message, inLoop bool) {}
func (nopLink) Crash(*Node)                                           {}
func (nopLink) Recover(*Node) error                                   { return nil }
func (nopLink) Close()                                                {}
func (nopLink) Loss() (dropped, requeued int)                         { return 0, 0 }
func (nopLink) Telemetry(*telemetry.Registry, telemetry.Label) func() { return nil }

// bareRuntime is a runtime with no nodes and no loops, for driving the
// mailbox post path directly.
func bareRuntime(cfg Config) *Runtime {
	return &Runtime{
		cfg:    cfg.withDefaults(),
		link:   nopLink{},
		timers: make(map[*time.Timer]struct{}),
		done:   make(chan struct{}),
	}
}

// TestPostFIFOUnderSustainedOverflow drives 1000 sequence-marked events
// through one link whose mailbox (capacity 4) is overflowing the whole time,
// with a consumer slower than the producer. Every post must survive (the
// producer blocks for backpressure, never drops within SendTimeout) and
// arrive in order — the per-link FIFO the old spawn-on-overflow fallback
// silently broke.
func TestPostFIFOUnderSustainedOverflow(t *testing.T) {
	rt := bareRuntime(Config{Mailbox: 4, SendTimeout: 10 * time.Second})
	defer close(rt.done)
	ns := &Node{mb: make(chan event, 4)}

	const n = 1000
	got := make([]int, 0, n)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for i := 0; i < n; i++ {
			ev := <-ns.mb
			got = append(got, int(ev.from))
			time.Sleep(20 * time.Microsecond) // slower than the producer
		}
	}()
	for i := 0; i < n; i++ {
		if !rt.Post(ns, ioa.NodeID(i), nil) {
			t.Fatalf("post %d dropped despite backpressure budget", i)
		}
	}
	<-consumed
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d arrived with sequence %d; per-link FIFO broken", i, v)
		}
	}
	if d := rt.overflow.Load(); d != 0 {
		t.Fatalf("%d drops on a consuming link", d)
	}
}

// TestPostDropsAfterSendTimeout wedges a mailbox with no consumer: posts
// beyond capacity must return within roughly SendTimeout, report failure,
// and be counted in the overflow counter and FaultStats — not spawn
// goroutines or vanish silently as the old spawn-on-overflow fallback did.
func TestPostDropsAfterSendTimeout(t *testing.T) {
	rt := bareRuntime(Config{Mailbox: 2, SendTimeout: 20 * time.Millisecond})
	defer close(rt.done)
	ns := &Node{mb: make(chan event, 2)}
	for i := 0; i < 2; i++ {
		if !rt.Post(ns, 0, nil) {
			t.Fatal("post to empty mailbox failed")
		}
	}
	start := time.Now()
	if rt.Post(ns, 0, nil) {
		t.Fatal("post to wedged mailbox succeeded")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("drop took %v; must resolve around SendTimeout", took)
	}
	if d := rt.overflow.Load(); d != 1 {
		t.Fatalf("overflow counter = %d, want 1", d)
	}
	if s := rt.faultStats(); s.TransportDropped != 1 {
		t.Fatalf("TransportDropped = %d, want 1", s.TransportDropped)
	}
}
