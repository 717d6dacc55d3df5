package consistency

// Online windowed linearizability checking. The offline CheckAtomic holds
// the whole history and searches it at once; the OnlineChecker consumes the
// same histories as a stream (ioa.HistorySink) and retires provably
// linearized prefixes as it goes, so its memory — and each check's cost —
// is bounded by a sliding window rather than the run length.
//
// Soundness rests on a clean-cut composition rule. Call a position c in an
// invocation-ordered history a *clean cut* when every operation before c
// responds before every operation at or after c invokes (no interval
// crosses c). Splitting at a clean cut, H = P · S with no op of S real-time
// preceding or concurrent with any op of P, so every linearization of H
// orders all of P before all of S; conversely, a linearization of P ending
// with register value v composes with any linearization of S starting from
// v. Hence H linearizes iff ∃v: P linearizes ending with v and S linearizes
// from initial value v — an equivalence, not a conservative approximation.
// Chaining it across many cuts only requires carrying the *set* of
// attainable final values from segment to segment; a violation is exactly
// the set becoming empty (or the final residual window failing from every
// carried value).
//
// Two further facts keep each carried set small and each segment check
// cheap: (a) a retired segment contains no pending operations (a pending op
// responds at +inf, so no cut ever forms after it), hence every write in it
// must be linearized and the segment's final value is the input of a write
// with no write invoked entirely after it (a "maximal" write) — or, for
// write-free segments, the inherited value itself; (b) "P linearizes ending
// with u" reduces to the plain check by appending a synthetic probe read of
// u that real-time-follows the whole segment, so the memoized CheckAtomic
// core is reused unchanged.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/ioa"
)

// DefaultWindowOps is the retirement window used when none is configured:
// once at least this many settled operations are buffered and a clean cut
// exists, the prefix up to the latest cut is checked and freed.
const DefaultWindowOps = 256

// OnlineChecker verifies atomicity incrementally. Feed it settled
// operations in invocation order with Observe (it implements
// ioa.HistorySink, so an ioa.OpFeed can drive it directly); it buffers them
// in a sliding window, retires the window's longest cleanly-cut prefix
// whenever the window fills, and reports the overall verdict with Result.
// Written values must be globally unique across the whole stream (the
// MakeValue contract every driver in this repository already obeys); unlike
// CheckAtomic, an online checker cannot re-verify uniqueness against
// retired history it has freed.
//
// The zero value is not usable; construct with NewOnlineChecker. All
// methods are safe for concurrent use.
type OnlineChecker struct {
	mu        sync.Mutex
	initial   []byte
	windowOps int

	window     []ioa.Op // settled ops not yet retired, invocation order
	runningMax int      // max respondOrInf over window ops
	lastCut    int      // window index of the latest clean cut (0 = none)
	lastInvoke int      // order enforcement across Observe calls
	carry      [][]byte // values the retired prefix may end with

	observed  int64
	verified  int64
	windows   int64
	maxWindow int

	violation error // sticky: set when a retired window fails to linearize
	misuse    error // sticky: ops delivered out of order or malformed
}

// OnlineOption configures an OnlineChecker.
type OnlineOption func(*OnlineChecker)

// WithWindowOps sets the retirement window size in operations.
func WithWindowOps(n int) OnlineOption {
	return func(c *OnlineChecker) {
		if n > 0 {
			c.windowOps = n
		}
	}
}

// NewOnlineChecker returns an online atomicity checker for a register whose
// initial value is initial (nil for the usual fresh register).
func NewOnlineChecker(initial []byte, opts ...OnlineOption) *OnlineChecker {
	c := &OnlineChecker{
		initial:    initial,
		windowOps:  DefaultWindowOps,
		runningMax: math.MinInt,
		carry:      [][]byte{initial},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Observe delivers the next operation of the history, in invocation order.
// Pending reads are discarded immediately (they constrain nothing, exactly
// as CheckAtomic drops them); pending writes are buffered and pin the
// frontier, since they may take effect arbitrarily late. When the window
// reaches its configured size and contains a clean cut, the prefix is
// verified and retired in-line on the caller's goroutine. Returns the
// sticky violation once one is found.
func (c *OnlineChecker) Observe(op ioa.Op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.misuse != nil {
		return c.misuse
	}
	if op.InvokeStep < c.lastInvoke {
		c.misuse = fmt.Errorf("consistency: online checker observed an op invoked at step %d after one invoked at step %d (ops must arrive in invocation order)", op.InvokeStep, c.lastInvoke)
		return c.misuse
	}
	if !op.Pending() && op.RespondStep < op.InvokeStep {
		c.misuse = fmt.Errorf("consistency: op %s responds before it invokes", op)
		return c.misuse
	}
	c.lastInvoke = op.InvokeStep
	c.observed++
	if op.Pending() && op.Kind == ioa.OpRead {
		return c.violation
	}
	if len(c.window) > 0 && c.runningMax < op.InvokeStep {
		c.lastCut = len(c.window)
	}
	c.window = append(c.window, op)
	if r := respondOrInf(op); r > c.runningMax {
		c.runningMax = r
	}
	if len(c.window) > c.maxWindow {
		c.maxWindow = len(c.window)
	}
	if len(c.window) >= c.windowOps && c.lastCut > 0 && c.violation == nil {
		c.retireLocked()
	}
	return c.violation
}

// AppendOp makes the checker an ioa.HistorySink.
func (c *OnlineChecker) AppendOp(op ioa.Op) error { return c.Observe(op) }

// Retire forces a retirement attempt at the latest clean cut, regardless of
// window occupancy, and returns the number of operations retired (0 when no
// cut exists, a violation is already recorded, or the window is empty).
func (c *OnlineChecker) Retire() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.verified
	if c.violation == nil && c.misuse == nil {
		c.retireLocked()
	}
	return int(c.verified - before)
}

// retireLocked verifies the window prefix up to the latest clean cut
// against the carried value set and frees it.
func (c *OnlineChecker) retireLocked() {
	if c.lastCut <= 0 {
		return
	}
	newCarry, viol := checkSegment(c.window[:c.lastCut], c.carry)
	if viol != nil {
		c.windows++
		c.violation = fmt.Errorf("consistency: online window %d (after %d verified ops): %w", c.windows, c.verified, viol)
		return
	}
	c.carry = newCarry
	c.verified += int64(c.lastCut)
	c.windows++
	rest := make([]ioa.Op, len(c.window)-c.lastCut) // fresh copy frees the retired backing array
	copy(rest, c.window[c.lastCut:])
	c.window = rest
	// Rescan the surviving suffix for its cut structure: removing a prefix
	// preserves every cut and can only expose new ones.
	c.lastCut = 0
	c.runningMax = math.MinInt
	for i, op := range rest {
		if i > 0 && c.runningMax < op.InvokeStep {
			c.lastCut = i
		}
		if r := respondOrInf(op); r > c.runningMax {
			c.runningMax = r
		}
	}
}

// Result reports the verdict over everything observed so far without
// consuming the window: the sticky violation if a retired window already
// failed, otherwise whether the residual window linearizes from some
// carried value. extra holds operations not yet delivered to the checker —
// an OpFeed snapshot of in-flight tickets — which are checked alongside the
// window: every extra op must have been invoked no earlier than the
// retirement frontier, which feed ordering guarantees. Result may be called
// mid-stream; a nil verdict means every completed op observed so far is
// part of a single witness linearization.
func (c *OnlineChecker) Result(extra ...ioa.Op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.misuse != nil {
		return c.misuse
	}
	if c.violation != nil {
		return c.violation
	}
	ops := c.window
	if len(extra) > 0 {
		ops = make([]ioa.Op, 0, len(c.window)+len(extra))
		ops = append(ops, c.window...)
		for _, op := range extra {
			if op.Pending() && op.Kind == ioa.OpRead {
				continue
			}
			ops = append(ops, op)
		}
	}
	if len(ops) == 0 {
		return nil
	}
	var firstViol error
	for _, v := range c.carry {
		ok, viol := linearizes(ops, v, nil)
		if ok {
			return nil
		}
		if firstViol == nil {
			firstViol = viol
		}
	}
	return fmt.Errorf("consistency: residual window (after %d verified ops): %w", c.verified, firstViol)
}

// OpsObserved returns the number of operations delivered via Observe.
func (c *OnlineChecker) OpsObserved() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.observed
}

// OpsVerified returns the number of operations retired behind the verified
// frontier (pending reads, which are dropped on arrival, count as neither
// observed-and-buffered nor verified).
func (c *OnlineChecker) OpsVerified() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.verified
}

// WindowLag returns the number of buffered operations not yet retired — the
// distance between the stream head and the verified frontier.
func (c *OnlineChecker) WindowLag() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.window)
}

// MaxWindow returns the high-water mark of the buffered window — the peak
// checker memory, in operations, over the whole run.
func (c *OnlineChecker) MaxWindow() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxWindow
}

// checkSegment decides which register values a linearization of the
// cleanly-cut segment seg may end with, given that it must start from one
// of the carry values. It returns the attainable final-value set, or the
// first violation encountered if the set is empty. seg must contain no
// pending operations (guaranteed for retired segments: a pending op
// suppresses every later cut).
func checkSegment(seg []ioa.Op, carry [][]byte) ([][]byte, error) {
	// Candidate final values: a write can be linearized last only if no
	// other write is invoked entirely after it responds, i.e. its response
	// is no earlier than the latest write invocation.
	maxWriteInvoke := math.MinInt
	for _, op := range seg {
		if op.Kind == ioa.OpWrite && op.InvokeStep > maxWriteInvoke {
			maxWriteInvoke = op.InvokeStep
		}
	}
	finals := maximalWriteValues(seg, maxWriteInvoke)

	out := make([][]byte, 0, len(finals)+1)
	have := make(map[string]bool, len(finals)+1)
	add := func(v []byte) {
		if !have[string(v)] {
			have[string(v)] = true
			out = append(out, v)
		}
	}
	var firstViol error
	for _, v := range carry {
		ok, viol := linearizes(seg, v, nil)
		if !ok {
			if firstViol == nil {
				firstViol = viol
			}
			continue
		}
		switch {
		case finals == nil:
			// No writes: the inherited value survives unchanged.
			add(v)
		case len(finals) == 1:
			// Every write must be linearized, so the unique maximal write
			// is forced to be last; no probe needed.
			add(finals[0])
		default:
			for _, u := range finals {
				if have[string(u)] {
					continue
				}
				if ok, _ := linearizes(seg, v, u); ok {
					add(u)
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, firstViol
	}
	return out, nil
}

// maximalWriteValues returns the distinct inputs of writes that may be
// linearized last in seg (response >= the latest write invocation), or nil
// when seg contains no writes.
func maximalWriteValues(seg []ioa.Op, maxWriteInvoke int) [][]byte {
	if maxWriteInvoke == math.MinInt {
		return nil
	}
	var finals [][]byte
	seen := make(map[string]bool, 2)
	for _, op := range seg {
		if op.Kind == ioa.OpWrite && respondOrInf(op) >= maxWriteInvoke && !seen[string(op.Input)] {
			seen[string(op.Input)] = true
			finals = append(finals, op.Input)
		}
	}
	return finals
}

// linearizes reports whether seg linearizes starting from register value v.
// With probe non-nil it additionally requires some linearization to end
// with the register holding probe, enforced by a synthetic completed read
// of probe appended strictly after every response in seg — the memoized
// CheckAtomic core then does all the work. A false verdict carries the
// violation; a read of a value foreign to seg∪{v} is a per-initial-value
// verdict (that value may be legal under a different carry), not an error.
func linearizes(seg []ioa.Op, v []byte, probe []byte) (bool, error) {
	ops := seg
	if probe != nil {
		maxResp := math.MinInt
		for _, op := range seg {
			if r := respondOrInf(op); r > maxResp {
				maxResp = r
			}
		}
		ops = make([]ioa.Op, len(seg), len(seg)+1)
		copy(ops, seg)
		ops = append(ops, ioa.Op{
			Client:      -1, // synthetic; the checker core never reads Client
			Kind:        ioa.OpRead,
			Output:      probe,
			InvokeStep:  maxResp + 1,
			RespondStep: maxResp + 2,
		})
	}
	c, err := newLinChecker(ops, v)
	if err != nil {
		return false, err
	}
	if c.search() {
		return true, nil
	}
	return false, &Violation{
		Condition: "atomicity",
		Op:        c.blame(),
		Detail:    "no linearization of the window exists",
	}
}

// CheckWindowed verifies atomicity of a batch history with the same
// windowed decomposition the OnlineChecker uses, checking the windows in
// parallel: the history is split at clean cuts at least windowOps apart,
// every segment's (inherited value → final value) transfer relation is
// computed concurrently on a worker pool, and a cheap sequential
// reachability pass over the carried value sets delivers the verdict. The
// verdict is exactly CheckAtomic's on every history; wall-clock drops both
// because windows bound the exponential search and because segments check
// in parallel. windowOps <= 0 selects DefaultWindowOps.
func CheckWindowed(h *ioa.History, initial []byte, windowOps int) error {
	if windowOps <= 0 {
		windowOps = DefaultWindowOps
	}
	ops := make([]ioa.Op, 0, len(h.Ops))
	for _, op := range h.Ops {
		if op.Pending() && op.Kind == ioa.OpRead {
			continue
		}
		ops = append(ops, op)
	}
	if _, err := writesByValue(ops); err != nil {
		return err
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].InvokeStep < ops[j].InvokeStep })
	if len(ops) == 0 {
		return nil
	}

	// Segment boundaries: clean cuts (every earlier op responded before
	// this op invokes) spaced at least windowOps apart.
	starts := []int{0}
	runningMax := math.MinInt
	for i, op := range ops {
		if i-starts[len(starts)-1] >= windowOps && runningMax < op.InvokeStep {
			starts = append(starts, i)
		}
		if r := respondOrInf(op); r > runningMax {
			runningMax = r
		}
	}
	nseg := len(starts)
	segOf := func(k int) []ioa.Op {
		if k+1 < nseg {
			return ops[starts[k]:starts[k+1]]
		}
		return ops[starts[k]:]
	}

	// Candidate inherited/final value sets per segment. A write-free
	// segment passes its inherited set through.
	ins := make([][][]byte, nseg)
	outs := make([][][]byte, nseg)
	cur := [][]byte{initial}
	for k := 0; k < nseg; k++ {
		ins[k] = cur
		maxWriteInvoke := math.MinInt
		for _, op := range segOf(k) {
			if op.Kind == ioa.OpWrite && op.InvokeStep > maxWriteInvoke {
				maxWriteInvoke = op.InvokeStep
			}
		}
		outs[k] = maximalWriteValues(segOf(k), maxWriteInvoke)
		if outs[k] != nil {
			cur = outs[k]
		}
	}

	// Per-(segment, inherited value) checks on a worker pool. Each job
	// writes only its own slots, so no locking is needed.
	type segResult struct {
		plain []bool   // plain[i]: segment linearizes from ins[k][i]
		viol  []error  // violation when !plain[i]
		mat   [][]bool // mat[i][j]: ... ending with outs[k][j]; nil unless needed
	}
	res := make([]segResult, nseg)
	type job struct{ k, i int }
	njobs := 0
	for k := 0; k < nseg; k++ {
		res[k].plain = make([]bool, len(ins[k]))
		res[k].viol = make([]error, len(ins[k]))
		if k < nseg-1 && len(outs[k]) > 1 {
			res[k].mat = make([][]bool, len(ins[k]))
			for i := range res[k].mat {
				res[k].mat[i] = make([]bool, len(outs[k]))
			}
		}
		njobs += len(ins[k])
	}
	jobs := make(chan job, njobs)
	workers := runtime.GOMAXPROCS(0)
	if workers > njobs {
		workers = njobs
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				seg, vin := segOf(jb.k), ins[jb.k][jb.i]
				ok, viol := linearizes(seg, vin, nil)
				if !ok {
					res[jb.k].viol[jb.i] = viol
					continue
				}
				res[jb.k].plain[jb.i] = true
				if res[jb.k].mat != nil {
					for j, u := range outs[jb.k] {
						ok2, _ := linearizes(seg, vin, u)
						res[jb.k].mat[jb.i][j] = ok2
					}
				}
			}
		}()
	}
	for k := 0; k < nseg; k++ {
		for i := range ins[k] {
			jobs <- job{k, i}
		}
	}
	close(jobs)
	wg.Wait()

	// Sequential reachability over the carried value sets.
	reach := make([]bool, len(ins[0]))
	reach[0] = true
	for k := 0; k < nseg; k++ {
		r := res[k]
		anyPass := false
		var next []bool
		switch {
		case outs[k] == nil: // pass-through: next indexes ins[k]
			next = make([]bool, len(ins[k]))
			for i, ok := range reach {
				if ok && r.plain[i] {
					next[i] = true
					anyPass = true
				}
			}
		case len(outs[k]) == 1: // forced final value
			next = make([]bool, 1)
			for i, ok := range reach {
				if ok && r.plain[i] {
					next[0] = true
					anyPass = true
				}
			}
		case k == nseg-1: // last segment: only the plain verdict matters
			for i, ok := range reach {
				if ok && r.plain[i] {
					anyPass = true
				}
			}
		default:
			next = make([]bool, len(outs[k]))
			for i, ok := range reach {
				if !ok || !r.plain[i] {
					continue
				}
				anyPass = true
				for j := range outs[k] {
					if r.mat[i][j] {
						next[j] = true
					}
				}
			}
		}
		if !anyPass {
			end := len(ops)
			if k+1 < nseg {
				end = starts[k+1]
			}
			for i, ok := range reach {
				if ok && r.viol[i] != nil {
					return fmt.Errorf("consistency: window %d of %d (ops %d..%d): %w", k+1, nseg, starts[k], end, r.viol[i])
				}
			}
			// Unreachable in theory (a passing plain check implies an
			// attainable final value); kept as a defensive verdict.
			return &Violation{Condition: "atomicity", Detail: "no linearization of the history exists"}
		}
		reach = next
	}
	return nil
}
