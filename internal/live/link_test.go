package live_test

import (
	"testing"

	"repro/internal/live"
	"repro/internal/noderun/linktest"
)

// TestDelayTimersStoppedOnClose runs the shared fault-gate timer check
// (delay and outage holds) over the in-memory link.
func TestDelayTimersStoppedOnClose(t *testing.T) {
	linktest.DelayTimersStoppedOnClose(t, live.OpenInteractive)
}

// TestPostDropsAfterSendTimeout wedges one server's mailbox on the
// in-memory link, where the writer's own node loop does the blocked post:
// overflowing messages must drop after SendTimeout and be counted.
func TestPostDropsAfterSendTimeout(t *testing.T) {
	linktest.PostDropsAfterSendTimeout(t, live.OpenInteractive)
}
