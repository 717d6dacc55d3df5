package shmem

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/abd"
	"repro/internal/cas"
	"repro/internal/workload"
)

// openABD opens a one-shard simulator store of the SWMR ABD register with
// one writer and one reader.
func openABD(t *testing.T, n, f int, opts ...Option) *Store {
	t.Helper()
	st, err := Open(Config{Algorithms: []string{"abd"}, Servers: n, F: f}, append([]Option{WithClients(1, 1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestQuickstartFlow(t *testing.T) {
	st := openABD(t, 5, 2)
	ctx := context.Background()
	v := MakeValue(64, 1)
	if err := st.PutAs(ctx, 0, 0, v); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetAs(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v) {
		t.Fatalf("read %q, want %q", got, v)
	}
	if err := st.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorValidation(t *testing.T) {
	st := openABD(t, 3, 1)
	ctx := context.Background()
	err := st.PutAs(ctx, 5, 0, []byte("x"))
	if err == nil {
		t.Error("out-of-range writer must fail")
	} else if !strings.Contains(err.Error(), "writer index 5 out of range [0,1)") {
		t.Errorf("writer error %q does not name the valid range", err)
	}
	_, err = st.GetAs(ctx, 5, 0)
	if err == nil {
		t.Error("out-of-range reader must fail")
	} else if !strings.Contains(err.Error(), "reader index 5 out of range [0,1)") {
		t.Errorf("reader error %q does not name the valid range", err)
	}
}

// TestWriteStepBudgetTyped drives the single-op path into budget
// exhaustion: one delivery cannot complete a quorum write, and the bare
// kernel step-limit sentinel must surface as the typed ErrStepBudget.
// Put/Get share the same path with the same DefaultStepBudget, which at
// full size is effectively unreachable for a live quorum — so the mapping
// is pinned at a tiny budget here.
func TestWriteStepBudgetTyped(t *testing.T) {
	st := openABD(t, 5, 2, WithStepBudget(1))
	err := st.PutAs(context.Background(), 0, 0, MakeValue(64, 1))
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("budget-1 write error = %v, want ErrStepBudget", err)
	}
	if !strings.Contains(err.Error(), "budget 1 deliveries") {
		t.Errorf("error %q does not name the exhausted budget", err)
	}
	if DefaultStepBudget != 2000000 {
		t.Fatalf("DefaultStepBudget = %d, want the documented 2,000,000", DefaultStepBudget)
	}
}

// TestUnknownBackendIsTyped pins the unified selection error: Open with an
// unknown backend fails with the typed ErrUnknownBackend, whose message
// lists every valid name.
func TestUnknownBackendIsTyped(t *testing.T) {
	_, err := Open(Config{}, WithBackend("quantum"))
	if !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("Open with unknown backend: err = %v, want ErrUnknownBackend", err)
	}
	for _, name := range StoreBackends() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list backend %q", err, name)
		}
	}
}

// TestWithTransportSelectsNetBackend pins the WithTransport option: it
// implies the net backend, and a Put/Get pair round-trips over real loopback
// sockets.
func TestWithTransportSelectsNetBackend(t *testing.T) {
	st, err := Open(Config{}, WithTransport("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Backend(); got != "net" {
		t.Fatalf("WithTransport backend = %q, want \"net\"", got)
	}
	ctx := context.Background()
	v := MakeValue(48, 7)
	if err := st.Put(ctx, 0, v); err != nil {
		t.Fatal(err)
	}
	out, err := st.Get(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, v) {
		t.Fatalf("Get returned %d bytes, want the written value", len(out))
	}
	if err := st.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossBackendOpen is the PR's acceptance criterion: the same Config
// opened on "sim" and on "live" drives the same multi-key operation
// sequence through Put/Get, and both backends deliver passing consistency
// verdicts plus populated metrics.
func TestCrossBackendOpen(t *testing.T) {
	cfg := Config{
		Algorithms: []string{"cas", "abd-mwmr"},
		Servers:    5,
		F:          1,
		Shards:     3,
	}
	for _, backend := range StoreBackends() {
		t.Run(backend, func(t *testing.T) {
			st, err := Open(cfg, WithBackend(backend), WithClients(2, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ctx := context.Background()
			seq := uint64(0)
			for round := 0; round < 2; round++ {
				for key := 0; key < 6; key++ {
					seq++
					if err := st.Put(ctx, key, MakeValue(64, seq)); err != nil {
						t.Fatalf("Put key %d: %v", key, err)
					}
					if _, err := st.Get(ctx, key); err != nil {
						t.Fatalf("Get key %d: %v", key, err)
					}
				}
			}
			if err := st.CheckConsistency(); err != nil {
				t.Errorf("CheckConsistency on %s: %v", backend, err)
			}
			m := st.Metrics()
			if m.Backend != backend {
				t.Errorf("Metrics.Backend = %q, want %q", m.Backend, backend)
			}
			if m.TotalWrites != 12 || m.TotalReads != 12 {
				t.Errorf("op counts = (%d, %d), want (12, 12)", m.TotalWrites, m.TotalReads)
			}
			if m.AggregateMaxTotalBits == 0 {
				t.Error("no storage metered")
			}
			// The client-selection path names valid ranges on both backends.
			if err := st.PutAs(ctx, 9, 0, MakeValue(64, 999)); err == nil ||
				!strings.Contains(err.Error(), "writer index 9 out of range [0,2)") {
				t.Errorf("PutAs range error = %v", err)
			}
		})
	}
}

// TestCrashRecoveryVisibleInMetrics opens a live-backend store whose fault
// scenario crashes and recovers f servers, drives a few interactive
// operations, and checks the wall-clock scheduler's crash, recovery and
// checkpoint counts surface in Store.Metrics — the ISSUE 8 observability
// contract.
func TestCrashRecoveryVisibleInMetrics(t *testing.T) {
	st, err := Open(Config{
		Algorithms: []string{"cas"},
		Servers:    5,
		F:          1,
		Shards:     1,
		Faults:     []string{"crash-f@50:150"},
		Live:       LiveConfig{StepDur: time.Millisecond},
	}, WithBackend("live"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	if err := st.Put(ctx, 0, MakeValue(64, 1)); err != nil {
		t.Fatal(err)
	}
	// Poll metrics until the scheduled crash and recovery (at 50ms and
	// 150ms) have both fired and been counted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := st.Metrics()
		if m.Faults.Crashes >= 1 && m.Faults.Recoveries >= 1 {
			if m.Faults.Checkpoints == 0 {
				t.Errorf("recovery fired with no checkpoints counted: %+v", m.Faults)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("crash/recovery never surfaced in Metrics: %+v", m.Faults)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := st.Get(ctx, 0); err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	if err := st.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestMeasuredStorageRespectsAllApplicableBounds is the repository's
// central invariant (experiments E4-E7): every implemented algorithm's
// measured storage is at least every lower bound that applies to it.
func TestMeasuredStorageRespectsAllApplicableBounds(t *testing.T) {
	const valueBytes = 256
	log2V := float64(8 * valueBytes)

	cases := []struct {
		name    string
		deploy  func() (*Cluster, error)
		nu      int
		regular bool // SWSR regular algorithms: Theorems 4.1/5.1 apply
	}{
		{"abd-swmr", func() (*Cluster, error) { return abd.Deploy(abd.Options{Servers: 5, F: 2, Writers: 1, Readers: 1}) }, 1, true},
		{"abd-mwmr", func() (*Cluster, error) {
			return abd.Deploy(abd.Options{Servers: 5, F: 2, Writers: 2, Readers: 1, MultiWriter: true})
		}, 2, false},
		{"cas", func() (*Cluster, error) {
			return cas.Deploy(cas.Options{Servers: 7, F: 2, GCDepth: -1, Writers: 2, Readers: 1})
		}, 2, false},
		{"casgc", func() (*Cluster, error) { return cas.Deploy(cas.Options{Servers: 7, F: 2, Writers: 2, Readers: 1}) }, 2, false},
		{"two-version", func() (*Cluster, error) { return DeployTwoVersion(5, 2, 1) }, 1, true},
		{"two-version-gossip", func() (*Cluster, error) { return DeployTwoVersionGossip(5, 2, 1) }, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := tc.deploy()
			if err != nil {
				t.Fatal(err)
			}
			res, err := workload.Run(cl, WorkloadSpec{
				Seed: 3, Writes: 4 * tc.nu, Reads: 2, TargetNu: tc.nu, ValueBytes: valueBytes,
			})
			if err != nil {
				t.Fatal(err)
			}
			p := Params{N: len(cl.Servers), F: cl.F}
			measured := float64(res.Storage.MaxTotalBits)
			bounds := map[string]float64{
				"B.1": SingletonTotalBits(p, log2V),
			}
			if tc.regular {
				bounds["4.1"] = Theorem41TotalBits(p, log2V)
				bounds["5.1"] = Theorem51TotalBits(p, log2V)
			}
			if err := cl.Profile.Theorem65Applies(); err == nil {
				bounds["6.5"] = Theorem65TotalBits(p, res.PeakActiveWrites, log2V)
			}
			for name, b := range bounds {
				if measured < b {
					t.Errorf("measured %.0f bits violates Theorem %s bound %.0f", measured, name, b)
				}
			}
		})
	}
}

func TestFigure1MatchesPaperShape(t *testing.T) {
	p := Params{N: 21, F: 10}
	rows, err := Figure1(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Shape facts from the paper's Figure 1:
	// (1) lower bounds are ordered B.1 <= 5.1 <= 6.5 for nu >= 2;
	// (2) Theorem 6.5 meets the ABD line at nu = f+1 and saturates;
	// (3) the erasure upper bound crosses the ABD line between nu=5 and 6.
	for _, r := range rows {
		if r.TheoremB1 > r.Theorem51+1e-9 {
			t.Errorf("nu=%d: B.1 above 5.1", r.Nu)
		}
		if r.Nu >= 2 && r.Theorem51 > r.Theorem65+1e-9 {
			t.Errorf("nu=%d: 5.1 above 6.5", r.Nu)
		}
		if r.Theorem65 > r.ABD+1e-9 {
			t.Errorf("nu=%d: 6.5 above the ABD upper bound", r.Nu)
		}
	}
	if rows[11].Theorem65 != rows[16].Theorem65 {
		t.Error("Theorem 6.5 should saturate at nu = f+1")
	}
	if got := ReplicationCrossoverNu(p); got != 6 {
		t.Errorf("crossover %d, want 6", got)
	}
	if rows[5].Erasure >= rows[5].ABD || rows[6].Erasure < rows[6].ABD {
		t.Error("erasure/ABD crossover should fall between nu=5 and nu=6")
	}
}

func TestProofHarnessesViaFacade(t *testing.T) {
	cfg := ProofConfig{Build: TwoVersionBuilder(5, 2), FailServers: []int{3, 4}}
	vals := [][]byte{MakeValue(16, 1), MakeValue(16, 2), MakeValue(16, 3)}
	r41, err := cfg.RunTheorem41(vals)
	if err != nil {
		t.Fatal(err)
	}
	if !r41.Injective {
		t.Error("Theorem 4.1 injectivity should hold")
	}
	rb, err := cfg.RunAppendixB(vals)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Injective {
		t.Error("Appendix B injectivity should hold")
	}
	cas := ProofConfig{Build: CASBuilder(5, 2, 2), FailServers: []int{4}}
	r65, err := cas.RunTheorem65([][][]byte{
		{MakeValue(16, 1), MakeValue(16, 2)},
		{MakeValue(16, 3), MakeValue(16, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r65.AllRecovered {
		t.Error("CAS values should all be recoverable")
	}
}

func TestSection7ViaFacade(t *testing.T) {
	p := Params{N: 21, F: 10}
	c := Section7Summary(p, 4, 2.0)
	if c.Feasible {
		t.Error("g=2.0 < 42/13 should be infeasible")
	}
}

// Example_openPutGet is the quickstart: open a sharded atomic store on the
// deterministic simulator, write and read across keys, and verify the
// accumulated history.
func Example_openPutGet() {
	st, err := Open(Config{}, WithShards(2))
	if err != nil {
		panic(err)
	}
	defer st.Close()

	ctx := context.Background()
	if err := st.Put(ctx, 1, []byte("hello, shared memory")); err != nil {
		panic(err)
	}
	got, err := st.Get(ctx, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("key 1 reads %q\n", got)

	if err := st.CheckConsistency(); err != nil {
		panic(err)
	}
	fmt.Println("interactive history is consistent")
	// Output:
	// key 1 reads "hello, shared memory"
	// interactive history is consistent
}

// Example_openLiveBackend opens the same Config on the live concurrent
// runtime — node automata on goroutines, messages over channels — and
// drives it through the identical interactive surface.
func Example_openLiveBackend() {
	st, err := Open(Config{}, WithBackend("live"), WithClients(2, 2))
	if err != nil {
		panic(err)
	}
	defer st.Close()

	ctx := context.Background()
	if err := st.Put(ctx, 7, []byte("served from goroutines")); err != nil {
		panic(err)
	}
	got, err := st.Get(ctx, 7)
	if err != nil {
		panic(err)
	}
	fmt.Printf("key 7 reads %q\n", got)

	if err := st.CheckConsistency(); err != nil {
		panic(err)
	}
	m := st.Metrics()
	fmt.Printf("backend %s completed %d ops, all consistent\n", m.Backend, m.TotalWrites+m.TotalReads)
	// Output:
	// key 7 reads "served from goroutines"
	// backend live completed 2 ops, all consistent
}

// Example_runExperiment runs a seeded multi-key batch experiment through
// the handle and compares the metered storage against the paper's
// Theorem B.1 (Singleton) lower bound.
func Example_runExperiment() {
	st, err := Open(Config{Algorithms: []string{"casgc"}}, WithShards(4), WithSeed(42))
	if err != nil {
		panic(err)
	}
	defer st.Close()

	res, err := st.RunMulti(MultiWorkloadSpec{
		Seed: 42, Keys: 32, Ops: 64, ReadFraction: 0.25,
		TargetNu: 2, ValueBytes: 256,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ran %d writes and %d reads over 4 shards\n", res.TotalWrites, res.TotalReads)

	p := Params{N: 5, F: 1}
	bound := SingletonTotalBits(p, res.Log2V) / res.Log2V
	for _, s := range res.PerShard {
		if s.Writes > 0 && s.NormalizedTotal < bound {
			fmt.Printf("shard %d beats the Singleton bound — impossible!\n", s.Shard)
		}
	}
	fmt.Println("every shard's storage respects the Singleton bound")
	// Output:
	// ran 47 writes and 17 reads over 4 shards
	// every shard's storage respects the Singleton bound
}
