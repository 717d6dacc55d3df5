package shmem

import (
	"context"
	"runtime"
	"testing"
)

// TestInteractiveHeapBounded pins that an interactive wall-clock store keeps
// no per-operation state of its own: 5,000 distinct 4-KiB Puts through an
// online-checked one-shard store may grow the live heap by far less than
// the ~20 MiB the written values themselves add up to. The session's online
// checker retires verified operations, and the node runtime records nothing
// for an interactive session, so what stays live is the servers' register
// state and the checker's current window.
func TestInteractiveHeapBounded(t *testing.T) {
	const (
		puts       = 5000
		valueBytes = 4096
		maxGrowth  = 6 << 20
	)
	for _, backend := range []string{"live", "net"} {
		t.Run(backend, func(t *testing.T) {
			st, err := Open(Config{Algorithms: []string{"abd-mwmr"}, Servers: 5, F: 1, Shards: 1},
				WithBackend(backend), WithOnlineCheck())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ctx := context.Background()
			before := liveHeap()
			for i := 0; i < puts; i++ {
				if err := st.Put(ctx, 0, MakeValue(valueBytes, uint64(i+1))); err != nil {
					t.Fatalf("Put %d: %v", i, err)
				}
			}
			growth := liveHeap() - before
			t.Logf("%s: heap growth %.1f MiB after %d Puts of %d bytes", backend, float64(growth)/(1<<20), puts, valueBytes)
			if growth >= maxGrowth {
				t.Fatalf("heap grew %.1f MiB over %d Puts; want < %d MiB (per-operation state retained)",
					float64(growth)/(1<<20), puts, maxGrowth>>20)
			}
			if err := st.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
