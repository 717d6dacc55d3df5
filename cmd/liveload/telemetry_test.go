package main

import (
	"bufio"
	"flag"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sampleLineRe loosely matches one Prometheus exposition sample line:
// name, optional label set, one float value.
var sampleLineRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9eE.+-]+$|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [+-]Inf$|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? NaN$`)

// TestTelemetrySmoke runs liveload -backend net with -telemetry and scrapes
// the live /metrics endpoint repeatedly while the sweep executes: every
// scrape must be a well-formed exposition, counters must be monotone across
// consecutive scrapes, and the net-backend families (transport counters,
// storage gauges, latency histograms) must appear. This is the in-process
// version of `make telemetry-smoke`.
func TestTelemetrySmoke(t *testing.T) {
	flag.CommandLine = flag.NewFlagSet("liveload", flag.ContinueOnError)
	os.Args = []string{"liveload", "-backend", "net",
		"-clients", "2", "-ops", "600", "-shards", "1", "-keys", "8",
		"-telemetry", "127.0.0.1:0", "-stat-interval", "100ms"}

	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w

	// Stream stdout as it is produced: the telemetry line carries the
	// ephemeral endpoint address the test must scrape mid-run.
	urlCh := make(chan string, 1)
	outCh := make(chan string, 1)
	go func() {
		var b strings.Builder
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			line := sc.Text()
			b.WriteString(line)
			b.WriteByte('\n')
			if rest, ok := strings.CutPrefix(line, "telemetry        : "); ok {
				urlCh <- strings.TrimSuffix(strings.Fields(rest)[0], "/metrics")
			}
		}
		outCh <- b.String()
	}()

	runErr := make(chan error, 1)
	go func() { runErr <- run() }()

	var base string
	select {
	case base = <-urlCh:
	case err := <-runErr:
		w.Close()
		os.Stdout = old
		t.Fatalf("run() finished before printing the telemetry endpoint (err=%v):\n%s", err, <-outCh)
	case <-time.After(30 * time.Second):
		t.Fatal("no telemetry endpoint line within 30s")
	}

	// Scrape until the run completes; each successful scrape is validated
	// and compared against its predecessor.
	var scrapes []map[string]float64
	var errRun error
	for running := true; running; {
		select {
		case errRun = <-runErr:
			running = false
		default:
			if body, ok := tryScrape(base + "/metrics"); ok {
				scrapes = append(scrapes, parseExposition(t, body))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	w.Close()
	os.Stdout = old
	out := <-outCh
	if errRun != nil {
		t.Fatalf("run() failed: %v\n%s", errRun, out)
	}
	if len(scrapes) < 2 {
		t.Fatalf("want at least 2 mid-run scrapes, got %d (run too fast?)", len(scrapes))
	}

	// Counters (…_total series) never move backward between scrapes.
	for i := 1; i < len(scrapes); i++ {
		prev, cur := scrapes[i-1], scrapes[i]
		for series, v0 := range prev {
			if !strings.Contains(series, "_total") {
				continue
			}
			if v1, ok := cur[series]; ok && v1 < v0 {
				t.Errorf("scrape %d: counter %s went backward: %v -> %v", i, series, v0, v1)
			}
		}
	}

	last := scrapes[len(scrapes)-1]
	for _, family := range []string{
		"shmem_storage_max_bits", "shmem_storage_bound_bits",
		"shmem_transport_frames_sent_total", "shmem_ops_started_total",
		"shmem_op_latency_seconds_bucket",
	} {
		found := false
		for series := range last {
			if strings.HasPrefix(series, family) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("final scrape has no %s series", family)
		}
	}
}

// tryScrape fetches one exposition; ok=false when the server is already
// gone (the run can finish between scrapes).
func tryScrape(url string) (string, bool) {
	resp, err := http.Get(url)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", false
	}
	return string(b), true
}

// parseExposition validates the Prometheus text format line by line and
// returns series -> value.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	series := make(map[string]float64)
	typed := make(map[string]bool)
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || (f[1] != "counter" && f[1] != "gauge" && f[1] != "histogram") {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[f[0]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLineRe.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
		sp := strings.LastIndex(line, " ")
		name, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		fam := name
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(fam, suffix); ok && typed[base] {
				fam = base
				break
			}
		}
		if !typed[fam] {
			t.Fatalf("sample %q has no preceding # TYPE for %q", line, fam)
		}
		series[name] = v
	}
	return series
}
