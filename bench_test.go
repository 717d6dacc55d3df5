package shmem

// The benchmark harness regenerates every evaluation artifact of the paper
// (see DESIGN.md section 3 for the experiment index and EXPERIMENTS.md for
// the recorded results):
//
//	E1 BenchmarkFigure1Series        — Figure 1 series generation
//	E2 BenchmarkE2ClassicalComparison— replication vs erasure at nu=1
//	E3 BenchmarkE3StorageVsNu        — CASGC storage growth with nu + ABD flat line
//	E4 BenchmarkE4SingletonBound     — Solo register meets Theorem B.1
//	E5 BenchmarkE5Theorem41Proof     — executable Theorem 4.1 proof
//	E6 BenchmarkE6BoundSweep         — bound evaluation across parameters
//	E7 BenchmarkE7RestrictedClass    — executable Theorem 6.5 experiment
//	E8 (cmd/lowerbounds -summary)    — Section 7 summary (not timed)
//	E9 BenchmarkE9CheckerThroughput  — consistency-checker throughput
//	E10 BenchmarkE10ShardedStore     — sharded store: normcost and ops/sec vs shard count
//	E11 BenchmarkE11FaultScenarios   — storage high-water marks and liveness verdicts across the fault scenario grid
//	E12 BenchmarkE12LiveThroughput   — live-backend throughput across client counts and pipeline depths
//	E13 (cmd/liveload, cmd/netload -faults crash-f@...) — crash-recovery durability (not timed)
//	E14 BenchmarkE14OnlineCheck      — online windowed checking vs offline CheckAtomic vs no check on a live run
//
// Custom metrics (b.ReportMetric) carry the experiment's headline numbers so
// that bench output doubles as the results record: "normcost" is total
// storage normalized by log2|V|, directly comparable to Figure 1's y-axis.

import (
	"fmt"
	"testing"

	"repro/internal/abd"
	"repro/internal/cas"
	"repro/internal/store"
	"repro/internal/workload"
)

// benchWrite and benchRead run one operation to completion at the cluster's
// first writer or reader under a fair schedule on its simulator.
func benchWrite(b *testing.B, cl *Cluster, value []byte) {
	b.Helper()
	if _, err := cl.Sys.RunOp(cl.Writers[0], Invocation{Kind: OpWrite, Value: value}, DefaultStepBudget); err != nil {
		b.Fatal(err)
	}
}

func benchRead(b *testing.B, cl *Cluster) {
	b.Helper()
	if _, err := cl.Sys.RunOp(cl.Readers[0], Invocation{Kind: OpRead}, DefaultStepBudget); err != nil {
		b.Fatal(err)
	}
}

// E1: Figure 1 series generation at the paper's parameters.
func BenchmarkFigure1Series(b *testing.B) {
	p := Params{N: 21, F: 10}
	var rows []Figure1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Figure1(p, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].TheoremB1, "B1@nu1")
	b.ReportMetric(rows[1].Theorem51, "T51@nu1")
	b.ReportMetric(rows[11].Theorem65, "T65@nu11")
	b.ReportMetric(rows[11].ABD, "ABD")
}

// E2: the classical (nu=1) comparison of Section 2.1 — replication stores
// ~N·log|V| total while the coded register stores ~N/(N-f)·log|V|.
func BenchmarkE2ClassicalComparison(b *testing.B) {
	const n, f, valBytes = 8, 2, 4096
	log2V := float64(8 * valBytes)
	var abdNorm, soloNorm float64
	for i := 0; i < b.N; i++ {
		abdCl, err := abd.Deploy(abd.Options{Servers: n, F: f, Writers: 1, Readers: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchWrite(b, abdCl, MakeValue(valBytes, 1))
		abdNorm = float64(abdCl.Sys.Storage().MaxTotalBits) / log2V

		soloCl, err := DeploySolo(n, f, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchWrite(b, soloCl, MakeValue(valBytes, 1))
		soloNorm = float64(soloCl.Sys.Storage().MaxTotalBits) / log2V
	}
	p := Params{N: n, F: f}
	b.ReportMetric(abdNorm, "replication_normcost")
	b.ReportMetric(soloNorm, "erasure_normcost")
	b.ReportMetric(SingletonTotalBits(p, log2V)/log2V, "singleton_bound")
}

// E3: storage versus write concurrency. CASGC grows ~linearly in nu while
// ABD stays flat — the central storytelling of Section 2.3 and Figure 1.
func BenchmarkE3StorageVsNu(b *testing.B) {
	const n, f, valBytes = 9, 2, 1024
	for _, nu := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("casgc/nu=%d", nu), func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				cl, err := cas.Deploy(cas.Options{Servers: n, F: f, Writers: nu, Readers: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := workload.Run(cl, WorkloadSpec{
					Seed: 7, Writes: 5 * nu, Reads: 2, TargetNu: nu, ValueBytes: valBytes,
				})
				if err != nil {
					b.Fatal(err)
				}
				norm = res.NormalizedTotal
			}
			b.ReportMetric(norm, "normcost")
			b.ReportMetric(Theorem65TotalBits(Params{N: n, F: f}, nu, float64(8*valBytes))/float64(8*valBytes), "T65_bound")
		})
	}
	b.Run("abd/nu=3", func(b *testing.B) {
		var norm float64
		for i := 0; i < b.N; i++ {
			cl, err := abd.Deploy(abd.Options{Servers: n, F: f, Writers: 3, Readers: 1, MultiWriter: true})
			if err != nil {
				b.Fatal(err)
			}
			res, err := workload.Run(cl, WorkloadSpec{
				Seed: 7, Writes: 15, Reads: 2, TargetNu: 3, ValueBytes: valBytes,
			})
			if err != nil {
				b.Fatal(err)
			}
			norm = res.NormalizedTotal
		}
		b.ReportMetric(norm, "normcost")
	})
}

// E4: the Solo register meets the Theorem B.1 bound with equality (up to
// metadata) in the Appendix B execution family.
func BenchmarkE4SingletonBound(b *testing.B) {
	const n, f, valBytes = 8, 2, 4096
	log2V := float64(8 * valBytes)
	var norm float64
	for i := 0; i < b.N; i++ {
		cl, err := DeploySolo(n, f, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchWrite(b, cl, MakeValue(valBytes, 9))
		benchRead(b, cl)
		norm = float64(cl.Sys.Storage().CurrentTotalBits) / log2V
	}
	b.ReportMetric(norm, "normcost")
	b.ReportMetric(SingletonTotalBits(Params{N: n, F: f}, log2V)/log2V, "B1_bound")
}

// E5: the executable Theorem 4.1 proof (critical pairs + injectivity) on
// the two-version coded register.
func BenchmarkE5Theorem41Proof(b *testing.B) {
	cfg := ProofConfig{Build: TwoVersionBuilder(5, 2), FailServers: []int{3, 4}}
	vals := [][]byte{MakeValue(16, 1), MakeValue(16, 2), MakeValue(16, 3)}
	var res *Theorem41Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = cfg.RunTheorem41(vals)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DistinctVectors), "distinct_vectors")
	b.ReportMetric(res.WitnessedBitsLowerBound, "witnessed_bits")
}

// E6: bound evaluation across a parameter sweep (the numeric work behind
// any re-plot of Figure 1 at other N, f).
func BenchmarkE6BoundSweep(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for n := 3; n <= 30; n++ {
			for f := 0; 2*f+1 <= n; f++ {
				p := Params{N: n, F: f}
				sink += SingletonTotalBits(p, 1024)
				sink += Theorem41TotalBits(p, 1024)
				sink += Theorem51TotalBits(p, 1024)
				for nu := 1; nu <= 8; nu++ {
					sink += Theorem65TotalBits(p, nu, 1024)
				}
			}
		}
	}
	_ = sink
}

// E7: the executable Theorem 6.5 experiment on CAS.
func BenchmarkE7RestrictedClass(b *testing.B) {
	cfg := ProofConfig{Build: CASBuilder(5, 2, 2), FailServers: []int{4}}
	vectors := [][][]byte{
		{MakeValue(16, 1), MakeValue(16, 2)},
		{MakeValue(16, 3), MakeValue(16, 4)},
		{MakeValue(16, 5), MakeValue(16, 6)},
	}
	var res *Theorem65Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = cfg.RunTheorem65(vectors)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.PrefixServers), "prefix_servers")
	b.ReportMetric(float64(res.VectorsDistinct), "distinct_vectors")
}

// E9: consistency-checker throughput on a realistic concurrent history.
func BenchmarkE9CheckerThroughput(b *testing.B) {
	cl, err := abd.Deploy(abd.Options{Servers: 5, F: 2, Writers: 2, Readers: 2, MultiWriter: true})
	if err != nil {
		b.Fatal(err)
	}
	res, err := workload.Run(cl, WorkloadSpec{
		Seed: 11, Writes: 40, Reads: 40, TargetNu: 2, ValueBytes: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckAtomic(res.History, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.History.Ops)), "ops")
}

// E10: the sharded multi-register store — aggregate normalized storage and
// operation throughput as the keyspace spreads over 1 to 16 CAS shards,
// each shard an independent system run by the parallel workload engine.
// Load scales with the shard count so per-shard work stays constant.
func BenchmarkE10ShardedStore(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var res *StoreResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = store.Run(StoreOptions{
					Shards:     shards,
					Algorithms: []string{"cas"},
					Servers:    5,
					F:          1,
					Workload: MultiWorkloadSpec{
						Seed:         11,
						Keys:         8 * shards,
						Ops:          16 * shards,
						ReadFraction: 0.25,
						Skew:         "zipf",
						TargetNu:     2,
						ValueBytes:   256,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.NormalizedTotal, "normcost")
			b.ReportMetric(res.OpsPerSec, "ops/sec")
		})
	}
}

// E11: the fault scenario grid — the store under quorum-preserving crashes,
// a healing partition, lossy links and delay/reorder, per algorithm class
// (ABD replication vs CAS erasure coding). Reported metrics are the
// experiment's verdict record: the storage high-water mark normalized by
// log2|V| ("normcost"), the largest single-server footprint in bits, and how
// many shards went quiescent (liveness lost; safety is asserted via the
// per-shard consistency checks inside store.Run either way).
func BenchmarkE11FaultScenarios(b *testing.B) {
	scenarios := []string{"none", "crash-f@10", "partition@40:4000", "lossy=0.02", "delay=1:16"}
	for _, algo := range []string{"abd-mwmr", "cas"} {
		for _, scenario := range scenarios {
			b.Run(algo+"/"+scenario, func(b *testing.B) {
				b.ReportAllocs()
				var res *StoreResult
				for i := 0; i < b.N; i++ {
					var err error
					res, err = store.Run(StoreOptions{
						Shards:     2,
						Algorithms: []string{algo},
						Servers:    5,
						F:          1,
						Workload: MultiWorkloadSpec{
							Seed:         11,
							Keys:         16,
							Ops:          48,
							ReadFraction: 0.25,
							TargetNu:     2,
							ValueBytes:   256,
							Faults:       []string{scenario},
						},
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.NormalizedTotal, "normcost")
				b.ReportMetric(float64(res.MaxServerBits), "maxsrvbits")
				b.ReportMetric(float64(res.QuiescentShards), "quiescent")
			})
		}
	}
}

// E12: live-backend throughput across client counts and pipeline depths —
// the flow-control record. Bounded mailboxes give the run backpressure
// instead of goroutine storms, and pipelining keeps each client's next
// operations queued at the node, so throughput holds as concurrency grows.
// Consistency checking is disabled (the checkers are worst-case exponential
// in write concurrency); history well-formedness is still enforced by
// construction. "ops/sec" is the headline metric; "lost" must stay 0 on a
// fault-free run. The clients=64/pipeline=4 point runs twice — telemetry off
// and on — as the instrumentation-overhead record: the lock-free counters,
// latency histograms and storage samplers are budgeted at under 5% of
// throughput (DESIGN.md section 14), and this pair is the regression gate.
func BenchmarkE12LiveThroughput(b *testing.B) {
	for _, tc := range []struct {
		clients, pipeline int
		telemetry         bool
	}{
		{16, 1, false}, {16, 4, false}, {64, 4, false}, {64, 4, true}, {256, 8, false},
	} {
		name := fmt.Sprintf("clients=%d/pipeline=%d", tc.clients, tc.pipeline)
		if tc.telemetry {
			name += "/telemetry=on"
		}
		b.Run(name, func(b *testing.B) {
			var res *StoreResult
			for i := 0; i < b.N; i++ {
				opts := []Option{WithClients(tc.clients, tc.clients), WithPipeline(tc.pipeline), WithSkipCheck()}
				if tc.telemetry {
					opts = append(opts, WithTelemetry(NewTelemetry()))
				}
				st, err := Open(Config{
					Algorithms: []string{"abd-mwmr"},
					Servers:    5,
					F:          1,
					Backend:    "live",
				}, opts...)
				if err != nil {
					b.Fatal(err)
				}
				res, err = st.RunMulti(MultiWorkloadSpec{
					Seed:         11,
					Keys:         32,
					Ops:          8 * tc.clients,
					ReadFraction: 0.3,
					TargetNu:     tc.clients,
					ValueBytes:   64,
				})
				st.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.OpsPerSec, "ops/sec")
			b.ReportMetric(float64(res.Faults.Drops+res.Faults.TransportDropped), "lost")
		})
	}
}

// E14: the cost of verification on a live run — the streaming-checker
// record. The same abd-mwmr workload runs three ways: online (the windowed
// checker rides the run via the history sink, drivers quiescing every
// window), offline (the full history accumulates and CheckAtomic runs after
// the fact, worst-case exponential and quadratic even when it behaves), and
// skip (no checking: the throughput ceiling). "ops/sec" includes the check
// for the online and offline modes — that is the point — and "verified"
// reports how much of the history the online frontier retired.
func BenchmarkE14OnlineCheck(b *testing.B) {
	const ops = 20_000
	for _, mode := range []string{"online", "offline", "skip"} {
		b.Run(mode, func(b *testing.B) {
			var res *StoreResult
			for i := 0; i < b.N; i++ {
				opts := []Option{WithClients(1, 1), WithPipeline(8)}
				switch mode {
				case "online":
					opts = append(opts, WithOnlineCheck())
				case "skip":
					opts = append(opts, WithSkipCheck())
				}
				st, err := Open(Config{
					Algorithms: []string{"abd-mwmr"},
					Servers:    5,
					F:          1,
					Backend:    "live",
				}, opts...)
				if err != nil {
					b.Fatal(err)
				}
				res, err = st.RunMulti(MultiWorkloadSpec{
					Seed:         11,
					Keys:         32,
					Ops:          ops,
					ReadFraction: 0.5,
					TargetNu:     1,
					ValueBytes:   16,
				})
				st.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.OpsPerSec, "ops/sec")
			b.ReportMetric(float64(res.OpsVerified), "verified")
		})
	}
}

// End-to-end operation latency benchmarks for the two main algorithms.
func BenchmarkABDWriteReadPair(b *testing.B) {
	cl, err := abd.Deploy(abd.Options{Servers: 5, F: 2, Writers: 1, Readers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchWrite(b, cl, MakeValue(64, uint64(i+1)))
		benchRead(b, cl)
	}
}

func BenchmarkCASWriteReadPair(b *testing.B) {
	cl, err := cas.Deploy(cas.Options{Servers: 7, F: 2, Writers: 1, Readers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchWrite(b, cl, MakeValue(64, uint64(i+1)))
		benchRead(b, cl)
	}
}
