// Command liveload drives a wall-clock backend through a sharded keyspace
// workload and reports what only a wall-clock backend can measure: aggregate
// throughput and per-operation latency percentiles, swept across client
// counts. -backend selects the link: live (the default) runs every node
// automaton on its own goroutine with messages over channels; net gives every
// node its own TCP socket, so protocol messages cross the loopback network as
// binary frames. Every fault scenario runs on both, partitions included:
// outage windows hold messages and heal in wall-clock time (-stepdur maps
// steps to time). Safety is still enforced by default: every shard's history
// is checked against the algorithm's consistency condition, exactly as the
// simulator backend does. High-concurrency sweeps can disable the check
// (-check=false) — the checkers are worst-case exponential in write
// concurrency — while history well-formedness stays enforced. -check-online
// switches to the streaming windowed checker instead: settled operations are
// verified while the run executes, memory stays bounded by the window, and
// the verified/lag columns report how far the linearization frontier got.
//
// Usage:
//
//	liveload -alg cas -shards 4 -clients 2,4,8 -ops 256
//	liveload -alg abd-mwmr -clients 1,2,4 -faults lossy=0.01+delay=1:8
//	liveload -alg abd-mwmr -clients 1000 -pipeline 8 -check=false -ops 4000
//	liveload -alg cas -clients 2 -ops 100000 -check-online
//	liveload -backend net -alg cas -shards 2 -clients 1,8,64 -ops 256
//	liveload -backend net -clients 1,4 -faults partition@0:2000 -stepdur 1ms
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	shmem "repro"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "liveload:", err)
		os.Exit(1)
	}
}

// gridPoint aggregates one client-count setting.
type gridPoint struct {
	clients   int
	completed int
	pending   int
	lost      int
	quiescent int
	verified  int64
	lag       int
	elapsed   time.Duration
	opsPerSec float64
	p50, p99  time.Duration
}

func run() error {
	backend := flag.String("backend", "live", "wall-clock backend: live (in-process mailboxes) | net (a TCP socket per node)")
	alg := flag.String("alg", "cas", "algorithm (multi-writer: "+strings.Join(shmem.StoreAlgorithms(), " | ")+")")
	n := flag.Int("n", 5, "servers per shard N")
	f := flag.Int("f", 1, "tolerated server failures per shard f")
	shards := flag.Int("shards", 2, "independent register shards, run concurrently")
	clientsFlag := flag.String("clients", "1,2,4", "comma-separated per-shard client counts (writers; readers match)")
	keys := flag.Int("keys", 32, "keyspace size")
	ops := flag.Int("ops", 128, "total operations across the keyspace per client-count setting")
	readFrac := flag.Float64("reads", 0.3, "fraction of operations that are reads")
	valueBytes := flag.Int("valuebytes", 128, "bytes per written value")
	seed := flag.Int64("seed", 1, "workload and fault seed")
	faultSpec := flag.String("faults", "", "fault scenario applied to every shard (lossy=P, delay=MIN:MAX, partition@START:HEAL, crash-f@STEP[:RECOVER], composable with +)")
	listen := flag.String("listen", "127.0.0.1:0", "net backend only: listen address spec; keep the port 0 so every node gets its own ephemeral port")
	stepDur := flag.Duration("stepdur", 100*time.Microsecond, "wall-clock duration of one fault step (delays and partition windows)")
	opTimeout := flag.Duration("optimeout", 5*time.Second, "per-operation completion timeout")
	pipeline := flag.Int("pipeline", 1, "operations kept in flight per client (per-client order preserved)")
	check := flag.Bool("check", true, "consistency-check every shard history (disable for high-concurrency sweeps; the checkers are exponential in write concurrency)")
	checkOnline := flag.Bool("check-online", false, "verify atomicity with the streaming windowed checker while the run executes (memory bounded by the window; adds verified/lag columns)")
	checkWindow := flag.Int("check-window", 0, "online checker retirement window in operations (0 = default)")
	telemetryAddr := flag.String("telemetry", "", "serve Prometheus /metrics, /trace and pprof on this address for the run's duration (e.g. 127.0.0.1:9100; empty disables)")
	statEvery := flag.Duration("stat-interval", 2*time.Second, "interval between telemetry stat lines on stderr (with -telemetry)")
	flag.Parse()

	if *backend != "live" && *backend != "net" {
		return fmt.Errorf("%w %q (liveload runs the wall-clock backends: live, net)", shmem.ErrUnknownBackend, *backend)
	}
	clients, err := parseClients(*clientsFlag)
	if err != nil {
		return err
	}
	var faultSpecs []string
	if *faultSpec != "" {
		faultSpecs = []string{*faultSpec}
	}
	// The store reads the runtime config of the backend it runs on.
	cfg := shmem.Config{
		Algorithms: []string{*alg},
		Servers:    *n,
		F:          *f,
		Shards:     *shards,
		Backend:    *backend,
		Faults:     faultSpecs,
		Live:       shmem.LiveConfig{StepDur: *stepDur, OpTimeout: *opTimeout},
		Net:        shmem.NetConfig{ListenAddr: *listen, StepDur: *stepDur, OpTimeout: *opTimeout},
		Seed:       *seed,
	}
	load := shmem.MultiWorkloadSpec{Seed: *seed, Keys: *keys, Ops: *ops, ReadFraction: *readFrac, ValueBytes: *valueBytes}
	opts := []shmem.Option{shmem.WithPipeline(*pipeline)}
	if !*check {
		opts = append(opts, shmem.WithSkipCheck())
	} else if *checkOnline {
		opts = append(opts, shmem.WithOnlineCheck(), shmem.WithOnlineWindow(*checkWindow))
	}

	var reg *shmem.Telemetry
	if *telemetryAddr != "" {
		reg = shmem.NewTelemetry()
		srv, err := shmem.ServeTelemetry(*telemetryAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		opts = append(opts, shmem.WithTelemetry(reg))
		stopStats := telemetry.LogStats(os.Stderr, reg, *statEvery)
		defer stopStats()
		fmt.Printf("telemetry        : %s/metrics (traces at /trace, pprof at /debug/pprof/)\n", srv.URL())
	}

	fmt.Printf("%-17s: %s, %d shards x (N=%d f=%d), %d keys, %d ops/setting, pipeline %d, seed %d\n",
		*backend+" load", *alg, *shards, *n, *f, *keys, *ops, *pipeline, *seed)
	if *backend == "net" {
		fmt.Printf("transport        : TCP %s, one socket per node\n", *listen)
	}
	fmt.Printf("fault scenario   : %s\n", orNone(*faultSpec))
	if !*check {
		fmt.Println("consistency check: disabled (-check=false)")
	} else if *checkOnline {
		window := *checkWindow
		if window <= 0 {
			window = shmem.DefaultOnlineWindow
		}
		fmt.Printf("consistency check: online, %d-op retirement window (-check-online)\n", window)
	}
	fmt.Println()
	fmt.Printf("%-8s %-7s %-10s %-8s %-6s %-10s %-10s %-6s %-12s %-12s %-10s\n",
		"clients", "shards", "completed", "pending", "lost", "ops/sec", "verified", "lag", "p50", "p99", "verdict")

	for _, c := range clients {
		pt, err := runPoint(cfg, opts, load, c)
		if err != nil {
			return err
		}
		verdict := "ok"
		if pt.quiescent > 0 {
			verdict = fmt.Sprintf("%d quiescent", pt.quiescent)
		}
		fmt.Printf("%-8d %-7d %-10d %-8d %-6d %-10.0f %-10d %-6d %-12v %-12v %-10s\n",
			pt.clients, *shards, pt.completed, pt.pending, pt.lost, pt.opsPerSec,
			pt.verified, pt.lag,
			pt.p50.Round(time.Microsecond), pt.p99.Round(time.Microsecond), verdict)
	}
	return nil
}

// runPoint runs one client-count setting: a store handle opened with cfg
// (the selected backend and its runtime config) and `clients` writers and
// readers per shard runs the keyspace load through the parallel store
// engine, which partitions it, deploys a fresh cluster per shard,
// consistency-checks every shard (unless disabled) and aggregates the
// latency percentiles.
func runPoint(cfg shmem.Config, opts []shmem.Option, load shmem.MultiWorkloadSpec, clients int) (gridPoint, error) {
	st, err := shmem.Open(cfg, append([]shmem.Option{shmem.WithClients(clients, clients)}, opts...)...)
	if err != nil {
		return gridPoint{}, err
	}
	defer st.Close()
	load.TargetNu = clients
	res, err := st.RunMulti(load)
	if err != nil {
		return gridPoint{}, fmt.Errorf("clients=%d: %w", clients, err)
	}
	pt := gridPoint{
		clients:   clients,
		quiescent: res.QuiescentShards,
		verified:  res.OpsVerified,
		lag:       res.MaxWindowLag,
		elapsed:   res.Elapsed,
		p50:       res.LatencyP50,
		p99:       res.LatencyP99,
		lost:      res.Faults.Drops + res.Faults.TransportDropped,
	}
	for _, s := range res.PerShard {
		pt.pending += s.PendingOps
	}
	pt.completed = res.TotalOps - pt.pending
	if secs := pt.elapsed.Seconds(); secs > 0 {
		pt.opsPerSec = float64(pt.completed) / secs
	}
	return pt, nil
}

// parseClients parses the comma-separated client-count sweep.
func parseClients(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad client count %q (want positive integers, e.g. -clients 1,2,4)", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
