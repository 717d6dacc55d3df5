package faults

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ioa"
)

// TestWallClockFiresEventsInOrder checks the event goroutine fires the
// plan's crash and recovery hooks in schedule order and within a loose
// wall-clock tolerance of their step positions.
func TestWallClockFiresEventsInOrder(t *testing.T) {
	const stepDur = time.Millisecond
	plan := &Plan{Crashes: []Crash{
		{Node: 2, Step: 20, RecoverStep: 60},
		{Node: 1, Step: 40},
	}}
	type event struct {
		node    ioa.NodeID
		recover bool
		step    int
	}
	var mu sync.Mutex
	var got []event
	wc := NewWallClock(plan, stepDur)
	record := func(recover bool) func(ioa.NodeID) {
		return func(n ioa.NodeID) {
			mu.Lock()
			got = append(got, event{n, recover, wc.Step()})
			mu.Unlock()
		}
	}
	wc.Start(NodeHooks{Crash: record(false), Recover: record(true)})
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/3 events fired before the deadline", n)
		}
		time.Sleep(stepDur)
	}
	wc.Stop()

	want := []struct {
		node    ioa.NodeID
		recover bool
		step    int
	}{{2, false, 20}, {1, false, 40}, {2, true, 60}}
	for i, ev := range got {
		if ev.node != want[i].node || ev.recover != want[i].recover {
			t.Errorf("event %d = node %d recover=%t, want node %d recover=%t",
				i, ev.node, ev.recover, want[i].node, want[i].recover)
		}
		// The hook must never fire before its scheduled step; the upper
		// tolerance is loose (scheduler jitter on a busy CI host).
		if ev.step < want[i].step || ev.step > want[i].step+2000 {
			t.Errorf("event %d fired at step %d, scheduled for %d", i, ev.step, want[i].step)
		}
	}
	if wc.Crashes() != 2 || wc.Recoveries() != 1 {
		t.Errorf("counters = %d crashes, %d recoveries; want 2, 1", wc.Crashes(), wc.Recoveries())
	}
}

// TestWallClockFiresStepZeroInStart checks that events due at step 0 fire
// before Start returns, so a step-0 crash lands before the caller's first
// operation instead of racing it; later events stay on the event goroutine.
func TestWallClockFiresStepZeroInStart(t *testing.T) {
	plan := &Plan{Crashes: []Crash{{Node: 1, Step: 0}, {Node: 2, Step: 0}, {Node: 3, Step: 1 << 30}}}
	wc := NewWallClock(plan, time.Millisecond)
	var returned atomic.Bool
	var fired []ioa.NodeID
	var mu sync.Mutex
	wc.Start(NodeHooks{Crash: func(n ioa.NodeID) {
		if returned.Load() {
			t.Errorf("step-0 crash of node %d fired after Start returned", n)
		}
		mu.Lock()
		fired = append(fired, n)
		mu.Unlock()
	}})
	returned.Store(true)
	wc.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Errorf("fired %v, want [1 2] (the far-future crash abandoned by Stop)", fired)
	}
	if wc.Crashes() != 2 {
		t.Errorf("Crashes = %d, want 2", wc.Crashes())
	}
}

// TestWallClockStopAbandonsSchedule checks Stop joins the event goroutine
// without firing far-future events, and is idempotent.
func TestWallClockStopAbandonsSchedule(t *testing.T) {
	plan := &Plan{Crashes: []Crash{{Node: 1, Step: 1 << 30}}}
	wc := NewWallClock(plan, time.Millisecond)
	fired := make(chan ioa.NodeID, 1)
	wc.Start(NodeHooks{Crash: func(n ioa.NodeID) { fired <- n }})
	wc.Stop()
	wc.Stop() // idempotent
	select {
	case n := <-fired:
		t.Errorf("far-future crash of node %d fired before Stop", n)
	default:
	}
	if wc.Crashes() != 0 {
		t.Errorf("abandoned schedule counted %d crashes", wc.Crashes())
	}
}

// TestWallClockHold checks the pull-based outage gate: inside the window a
// frame is parked until the healing boundary (never less than one step);
// outside it passes immediately; unrelated links are never gated.
func TestWallClockHold(t *testing.T) {
	const stepDur = 10 * time.Millisecond
	plan := &Plan{Outages: []Outage{{
		From: NodeSet{101}, To: NodeSet{1}, Start: 0, End: 50,
	}}}
	wc := NewWallClock(plan, stepDur)
	wc.Start(NodeHooks{})
	defer wc.Stop()

	d, steps := wc.Hold(101, 1)
	if d <= 0 || steps <= 0 {
		t.Fatalf("Hold inside the window = (%v, %d), want a positive park", d, steps)
	}
	if max := 50 * stepDur; d > max {
		t.Errorf("park %v exceeds the window's remaining span %v", d, max)
	}
	if d < stepDur {
		t.Errorf("park %v is below one step %v; a re-dispatch could land inside the window", d, stepDur)
	}
	if d2, s2 := wc.Hold(1, 101); d2 != 0 || s2 != 0 {
		t.Errorf("asymmetric outage gated the reverse link: (%v, %d)", d2, s2)
	}
	if d3, s3 := wc.Hold(101, 2); d3 != 0 || s3 != 0 {
		t.Errorf("outage gated an uncovered link: (%v, %d)", d3, s3)
	}
}

// TestWallClockNilSafety pins the contract that lets hand-assembled
// runtimes skip the clock entirely: every method on a nil *WallClock is a
// no-op reporting zero.
func TestWallClockNilSafety(t *testing.T) {
	var wc *WallClock
	wc.Start(NodeHooks{Crash: func(ioa.NodeID) { t.Error("nil clock fired a hook") }})
	if s := wc.Step(); s != 0 {
		t.Errorf("nil clock Step() = %d", s)
	}
	if d, steps := wc.Hold(1, 2); d != 0 || steps != 0 {
		t.Errorf("nil clock Hold() = (%v, %d)", d, steps)
	}
	if wc.Crashes() != 0 || wc.Recoveries() != 0 {
		t.Error("nil clock counted events")
	}
	wc.Stop()
}

// TestWallClockNoEventsNoGoroutine checks a plan without node events (or a
// nil plan) starts no goroutine: Stop returns immediately.
func TestWallClockNoEventsNoGoroutine(t *testing.T) {
	for _, plan := range []*Plan{nil, {Rules: []Rule{{DropProb: 0.5}}}} {
		wc := NewWallClock(plan, time.Millisecond)
		wc.Start(NodeHooks{})
		if s := wc.Step(); s < 0 {
			t.Errorf("negative step %d", s)
		}
		wc.Stop()
	}
}
