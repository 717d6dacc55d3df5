package main

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	shmem "repro"
)

// metric is one reported number with its unit and which direction is
// better; Note says how it was measured or why it reads 0.
type metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Note   string  `json:"note,omitempty"`
}

// runOpts sizes a run. The command line fixes only Duration; the tests
// shrink the rest to run every workload in well under a second.
type runOpts struct {
	Duration time.Duration
	// BatchOps overrides the workload's ops per RunMulti call (0 keeps it).
	BatchOps int
	// SetupWarmOpens untimed opens precede SetupOpens timed ones; setup_s is
	// the median of the timed. The first opens of a process run several
	// times slower while the runtime grows its heap and goroutine pools, and
	// a median straddling that transition is unsteady.
	SetupWarmOpens, SetupOpens int
	// MinBatches is the fewest measured batches a run makes, however short
	// Duration is.
	MinBatches int
}

func (o runOpts) batchOps(w workload) int {
	if o.BatchOps > 0 {
		return o.BatchOps
	}
	return w.BatchOps
}

// errGate marks a run whose outputs failed a correctness gate.
var errGate = errors.New("correctness gate")

// batch is what one measured RunMulti call yields.
type batch struct {
	Attempted, Completed int
	Wall, CPU            time.Duration
	PeakHeap             uint64
	Verified             int64
	StorageNorm          float64
}

// tally accumulates a run's batches.
type tally struct {
	batches []batch
	lat     *latencyHist
}

func newTally() *tally { return &tally{lat: newLatencyHist()} }

func (t *tally) attempted() (n int) {
	for _, b := range t.batches {
		n += b.Attempted
	}
	return n
}

func (t *tally) completed() (n int) {
	for _, b := range t.batches {
		n += b.Completed
	}
	return n
}

// opsPerSec is the median over batches of completed ops ÷ RunMulti wall
// time.
func (t *tally) opsPerSec() float64 {
	xs := make([]float64, len(t.batches))
	for i, b := range t.batches {
		xs[i] = ratio(float64(b.Completed), b.Wall.Seconds())
	}
	return median(xs)
}

// heapWatch samples the Go heap in use (live and not yet swept objects)
// every 2ms and keeps the peak since the last reset.
type heapWatch struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for {
				cur := h.peak.Load()
				if v <= cur || h.peak.CompareAndSwap(cur, v) {
					break
				}
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak since the previous take and starts a new interval.
func (h *heapWatch) take() uint64 { return h.peak.Swap(0) }

func (h *heapWatch) close() {
	close(h.stop)
	h.wg.Wait()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// openStore opens the workload's store warm+timed times, closing all but
// the last, and returns the open store with the wall time in seconds of each
// of the last timed opens.
func openStore(w workload, seed int64, warm, timed int, rec *recorder, parent int) (*shmem.Store, []float64, error) {
	cfg, opts := w.config(seed)
	var secs []float64
	for i := -warm; i < timed; i++ {
		_, end := rec.begin("session.open", parent)
		t0 := time.Now()
		st, err := shmem.Open(cfg, opts...)
		d := time.Since(t0)
		end()
		if err != nil {
			return nil, nil, fmt.Errorf("open %s: %w", w.Name, err)
		}
		if i >= 0 {
			secs = append(secs, d.Seconds())
		}
		if i == timed-1 {
			return st, secs, nil
		}
		if err := st.Close(); err != nil {
			return nil, nil, fmt.Errorf("close %s: %w", w.Name, err)
		}
	}
	return nil, nil, fmt.Errorf("open %s: no opens requested", w.Name)
}

// runBatch times one RunMulti call and applies the correctness gates to its
// result: any error (an online-checker violation, or a fault-free timeout),
// a quiescent shard, nothing verified, or storage below the Theorem 5.1
// floor fails the run.
func runBatch(st *shmem.Store, w workload, m shmem.MultiWorkloadSpec, heap *heapWatch, lat *latencyHist) (batch, error) {
	heap.take()
	cpu0 := cpuTime()
	t0 := time.Now()
	res, err := st.RunMulti(m)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	peak := heap.take()
	if err != nil {
		return batch{}, fmt.Errorf("%w: RunMulti: %v", errGate, err)
	}
	b := batch{
		Attempted:   res.TotalOps,
		Wall:        wall,
		CPU:         cpu,
		PeakHeap:    peak,
		Verified:    res.OpsVerified,
		StorageNorm: float64(res.AggregateMaxTotalBits) / (float64(len(res.PerShard)) * w.log2V()),
	}
	for _, s := range res.PerShard {
		b.Completed += len(s.Latencies)
		lat.add(s.Latencies)
	}
	return b, gate(w, res.QuiescentShards, b.Verified, b.StorageNorm)
}

func gate(w workload, quiescent int, verified int64, storageNorm float64) error {
	switch {
	case quiescent > 0:
		return fmt.Errorf("%w: %d shard(s) went quiescent on a fault-free workload", errGate, quiescent)
	case verified == 0:
		return fmt.Errorf("%w: the online checker verified no operation", errGate)
	case storageNorm < w.storageFloor():
		return fmt.Errorf("%w: storage_norm %.4f below the Theorem 5.1 floor %.4f: the storage meter under-counts",
			errGate, storageNorm, w.storageFloor())
	}
	return nil
}

// e2eRun is an untraced run's raw material.
type e2eRun struct {
	setup []float64
	t     *tally
}

// runE2E opens the store (timing set-up), runs one warm-up batch, then
// measures batches until the run's time is used up.
func runE2E(w workload, seed int64, o runOpts, rec *recorder) (*e2eRun, error) {
	root, end := rec.begin("run.untraced", 0)
	defer end()
	st, setup, err := openStore(w, seed, o.SetupWarmOpens, o.SetupOpens, rec, root)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	heap := startHeapWatch()
	defer heap.close()

	run := &e2eRun{setup: setup, t: newTally()}
	ops := o.batchOps(w)
	_, endWarm := rec.begin("store.run_multi.warmup", root)
	_, err = runBatch(st, w, w.batch(seed, 0, ops), heap, newLatencyHist())
	endWarm()
	if err != nil {
		return run, err
	}
	start := time.Now()
	for i := 1; time.Since(start) < o.Duration || len(run.t.batches) < o.MinBatches; i++ {
		_, endB := rec.begin("store.run_multi", root)
		b, err := runBatch(st, w, w.batch(seed, i, ops), heap, run.t.lat)
		endB()
		run.t.batches = append(run.t.batches, b)
		if err != nil {
			return run, err
		}
	}
	return run, nil
}

// e2eMetrics derives the end-to-end metrics from an untraced run, keyed by
// name; ops_failed_frac is among them for the printed report.
func e2eMetrics(w workload, run *e2eRun) map[string]metric {
	t := run.t
	n := len(t.batches)
	att, done := t.attempted(), t.completed()
	var verified int64
	cpuPerKop := make([]float64, n)
	heapMiB := make([]float64, n)
	storage := make([]float64, n)
	for i, b := range t.batches {
		verified += b.Verified
		cpuPerKop[i] = ratio(float64(b.CPU)/float64(time.Millisecond), float64(b.Completed)/1000)
		heapMiB[i] = float64(b.PeakHeap) / (1 << 20)
		storage[i] = b.StorageNorm
	}
	p50, p99 := t.lat.rank(0.50), t.lat.rank(0.99)
	batches := fmt.Sprintf("median over %d RunMulti batches of %d ops", n, t.batches[0].Attempted)
	got := map[string]metric{}
	set := func(name string, v float64, note string) { got[name] = metric{Name: name, Value: v, Note: note} }
	set("ops_per_s", t.opsPerSec(), batches+"; completed ops / RunMulti wall time")
	set("p50_ms", p50.Value, fmt.Sprintf("nearest rank over %d latency samples, %d beyond", p50.Samples, p50.Beyond))
	set("p99_ms", p99.Value, fmt.Sprintf("nearest rank over %d latency samples, %d beyond", p99.Samples, p99.Beyond))
	set("ops_failed_frac", ratio(float64(att-done), float64(att)), fmt.Sprintf("(%d attempted - %d completed) / %d attempted", att, done, att))
	set("ops_completed_frac", ratio(float64(done), float64(att)), fmt.Sprintf("%d completed / %d attempted", done, att))
	set("verified_frac", ratio(float64(verified), float64(done)), fmt.Sprintf("%d verified online / %d completed", verified, done))
	set("storage_norm", median(storage), fmt.Sprintf("%s; AggregateMaxTotalBits / (%d shards x %.0f bits); Theorem 5.1 floor %.4f", batches, shards, w.log2V(), w.storageFloor()))
	set("cpu_ms_per_kop", median(cpuPerKop), batches+"; process user+sys CPU / (completed ops / 1000)")
	set("peak_heap_mb", median(heapMiB), batches+"; peak of Go heap objects, sampled every 2ms")
	set("setup_s", median(run.setup), fmt.Sprintf("median over %d shmem.Open calls", len(run.setup)))
	return got
}
