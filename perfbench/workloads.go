package main

import (
	"fmt"

	shmem "repro"
)

// workload is one named benchmark input. Every workload shares the cluster
// shape and the closed-loop client population: N=5 servers tolerating f=1
// crash, 2 shards, 2 writers + 2 readers per shard (ν=2 per register), 8
// operations in flight per client, and the online atomicity checker on.
// They differ in algorithm, backend, value size and read share, which is
// what moves work between layers (see README.md).
type workload struct {
	Name         string
	Algorithm    string
	Backend      string
	ValueBytes   int
	ReadFraction float64
	// BatchOps is the op count of one RunMulti call. A run repeats batches
	// until its time is used up, so each batch is one sample of the rates;
	// the sizes keep a batch at a few hundred milliseconds on a 2-core host.
	BatchOps int
}

const (
	servers  = 5
	faultsF  = 1
	shards   = 2
	writers  = 2
	readers  = 2
	pipeline = 8
	keys     = 16
	targetNu = writers
)

var workloads = []workload{
	{Name: "live-abd-small", Algorithm: "abd-mwmr", Backend: "live", ValueBytes: 64, ReadFraction: 0.2, BatchOps: 20000},
	{Name: "net-abd-small", Algorithm: "abd-mwmr", Backend: "net", ValueBytes: 64, ReadFraction: 0.2, BatchOps: 4000},
	{Name: "live-casgc-4k", Algorithm: "casgc", Backend: "live", ValueBytes: 4096, ReadFraction: 0.5, BatchOps: 8000},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// config is the store configuration shmem.Open receives for the workload.
func (w workload) config(seed int64) (shmem.Config, []shmem.Option) {
	cfg := shmem.Config{
		Algorithms: []string{w.Algorithm},
		Servers:    servers,
		F:          faultsF,
		Shards:     shards,
		Backend:    w.Backend,
	}
	return cfg, []shmem.Option{
		shmem.WithClients(writers, readers),
		shmem.WithPipeline(pipeline),
		shmem.WithOnlineCheck(),
		shmem.WithSeed(seed),
	}
}

// batch is the multi-key spec of the run's i-th batch; the seed and the
// batch index alone fix its inputs.
func (w workload) batch(seed int64, i, ops int) shmem.MultiWorkloadSpec {
	return shmem.MultiWorkloadSpec{
		Seed:         seed*1_000_003 + int64(i),
		Keys:         keys,
		Ops:          ops,
		ReadFraction: w.ReadFraction,
		TargetNu:     targetNu,
		ValueBytes:   w.ValueBytes,
	}
}

// log2V is the value-space size in bits, the storage normalizer.
func (w workload) log2V() float64 { return float64(8 * w.ValueBytes) }

// storageFloor is the Theorem 5.1 lower bound on one register's total
// storage, normalized by log2|V| (2N/(N−f+2) at these parameters).
func (w workload) storageFloor() float64 {
	return shmem.Theorem51TotalBits(shmem.Params{N: servers, F: faultsF}, w.log2V()) / w.log2V()
}
