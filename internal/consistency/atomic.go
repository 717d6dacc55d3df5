package consistency

import (
	"sort"

	"repro/internal/ioa"
)

// CheckAtomic verifies linearizability (atomicity) of a register history
// with unique written values. Completed operations must all be linearized;
// pending operations may take effect or not, at the checker's discretion
// (the standard completion semantics).
//
// The checker runs a depth-first search over linearizations with two
// standard optimizations: only "minimal" operations (all real-time
// predecessors already linearized) are candidates, and failed search states
// (chosen-set, last-written-value) are memoized. Candidate minimality is
// tracked through precomputed per-op predecessor counts (no rescan of every
// op per level), and the memo is an open-addressed table over packed uint64
// bitset words backed by a flat arena, so a search state costs no per-state
// allocation. For the bounded-concurrency histories produced by the
// experiments this is fast; worst-case it is exponential, as linearizability
// checking fundamentally is.
func CheckAtomic(h *ioa.History, initial []byte) error {
	ops := make([]ioa.Op, 0, len(h.Ops))
	for _, op := range h.Ops {
		if op.Pending() && op.Kind == ioa.OpRead {
			// A pending read constrains nothing: it may simply never take
			// effect.
			continue
		}
		ops = append(ops, op)
	}
	if _, err := writesByValue(ops); err != nil {
		return err
	}
	c, err := newLinChecker(ops, initial)
	if err != nil {
		return err
	}
	if c.search() {
		return nil
	}
	return &Violation{
		Condition: "atomicity",
		Op:        c.blame(),
		Detail:    "no linearization of the history exists",
	}
}

// linChecker holds the search state for one linearizability check.
type linChecker struct {
	ops     []ioa.Op
	initial []byte
	// chosen[i] reports whether ops[i] has been linearized; state is the
	// same set packed into uint64 words, maintained incrementally as the
	// memo key prefix.
	chosen []bool
	state  []uint64
	nDone  int // count of chosen completed ops
	nMust  int // number of completed ops (all must be linearized)
	// writeVal[i] is the value id a write op installs (-1 for reads);
	// readVal[i] is the value id a read op returns (-1 for writes). Value
	// ids substitute smallint comparisons for byte-slice map lookups in the
	// search.
	writeVal []int
	readVal  []int
	// Ops are sorted by invocation, so the set of ops invoked after op j's
	// response is the suffix starting at succFrom[j]; predLeft[i] counts op
	// i's not-yet-linearized real-time predecessors. An op is a search
	// candidate exactly when predLeft is 0.
	succFrom []int32
	predLeft []int32
	memo     deadTable
	keyBuf   []uint64
}

func newLinChecker(ops []ioa.Op, initial []byte) (*linChecker, error) {
	// Sort by invocation for deterministic candidate order.
	sorted := append([]ioa.Op(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].InvokeStep < sorted[j].InvokeStep })
	n := len(sorted)
	words := (n + 63) / 64
	c := &linChecker{
		ops:      sorted,
		initial:  initial,
		chosen:   make([]bool, n),
		state:    make([]uint64, words),
		writeVal: make([]int, n),
		readVal:  make([]int, n),
		succFrom: make([]int32, n),
		predLeft: make([]int32, n),
		keyBuf:   make([]uint64, words+1),
	}
	c.memo.init(words + 1)
	// valueID maps each distinct written value (plus initial) to a small
	// integer; it is only needed during construction.
	valueID := map[string]int{string(initial): 0}
	for i, op := range sorted {
		if !op.Pending() {
			c.nMust++
		}
		c.writeVal[i], c.readVal[i] = -1, -1
		if op.Kind == ioa.OpWrite {
			key := string(op.Input)
			id, ok := valueID[key]
			if !ok {
				id = len(valueID)
				valueID[key] = id
			}
			c.writeVal[i] = id
		}
	}
	for i, op := range sorted {
		if op.Kind == ioa.OpRead && !op.Pending() {
			id, ok := valueID[string(op.Output)]
			if !ok {
				return nil, &Violation{
					Condition: "atomicity",
					Op:        op,
					Detail:    "read returned a value that was never written",
				}
			}
			c.readVal[i] = id
		}
	}
	// Precompute the real-time precedence structure: j precedes i when j's
	// response happens before i's invocation, and (by the invocation sort)
	// those i form the suffix starting at the first op invoked after j
	// responded.
	for j, opj := range sorted {
		r := respondOrInf(opj)
		lo := sort.Search(n, func(i int) bool { return sorted[i].InvokeStep > r })
		c.succFrom[j] = int32(lo)
		for i := lo; i < n; i++ {
			c.predLeft[i]++
		}
	}
	return c, nil
}

// respondOrInf treats pending ops as responding at +infinity.
func respondOrInf(op ioa.Op) int {
	if op.Pending() {
		return int(^uint(0) >> 1) // max int
	}
	return op.RespondStep
}

// search tries to linearize all completed ops starting from the initial
// value. Returns true on success.
func (c *linChecker) search() bool {
	return c.dfs(0)
}

func (c *linChecker) dfs(lastVal int) bool {
	if c.nDone == c.nMust {
		return true
	}
	if c.memo.contains(c.stateKey(lastVal)) {
		return false // known dead end
	}
	for i := range c.ops {
		if c.chosen[i] || c.predLeft[i] > 0 {
			continue
		}
		if w := c.writeVal[i]; w >= 0 {
			c.take(i)
			if c.dfs(w) {
				return true
			}
			c.untake(i)
		} else if c.readVal[i] == lastVal {
			c.take(i)
			if c.dfs(lastVal) {
				return true
			}
			c.untake(i)
		}
	}
	// stateKey's buffer was clobbered by the recursive calls; rebuild it
	// (take/untake restored the underlying state).
	c.memo.add(c.stateKey(lastVal))
	return false
}

func (c *linChecker) take(i int) {
	c.chosen[i] = true
	c.state[i>>6] |= 1 << (uint(i) & 63)
	for s := int(c.succFrom[i]); s < len(c.predLeft); s++ {
		c.predLeft[s]--
	}
	if !c.ops[i].Pending() {
		c.nDone++
	}
}

func (c *linChecker) untake(i int) {
	c.chosen[i] = false
	c.state[i>>6] &^= 1 << (uint(i) & 63)
	for s := int(c.succFrom[i]); s < len(c.predLeft); s++ {
		c.predLeft[s]++
	}
	if !c.ops[i].Pending() {
		c.nDone--
	}
}

// stateKey packs (chosen bitmap, last value) into the checker's reusable key
// buffer — valid only until the next stateKey call.
func (c *linChecker) stateKey(lastVal int) []uint64 {
	n := copy(c.keyBuf, c.state)
	c.keyBuf[n] = uint64(lastVal)
	return c.keyBuf
}

// blame picks a representative operation to report: the earliest completed
// read whose value never matches a possible predecessor; falls back to the
// first completed op.
func (c *linChecker) blame() ioa.Op {
	for _, op := range c.ops {
		if op.Kind == ioa.OpRead && !op.Pending() {
			return op
		}
	}
	for _, op := range c.ops {
		if !op.Pending() {
			return op
		}
	}
	if len(c.ops) > 0 {
		return c.ops[0]
	}
	return ioa.Op{}
}
