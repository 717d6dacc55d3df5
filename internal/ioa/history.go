package ioa

import "fmt"

// Op records one operation in an execution's history: its invocation step,
// its response step (or -1 while pending), and its input/output values.
type Op struct {
	ID          int
	Client      NodeID
	Kind        OpKind
	Input       []byte // value written (writes)
	Output      []byte // value returned (reads)
	InvokeStep  int
	RespondStep int // -1 while pending
}

// Pending reports whether the operation has not yet responded.
func (o Op) Pending() bool { return o.RespondStep < 0 }

// PrecedesOp reports whether o completed before p was invoked (the real-time
// precedence relation "<" used by every consistency condition).
func (o Op) PrecedesOp(p Op) bool {
	return !o.Pending() && o.RespondStep < p.InvokeStep
}

// String formats the operation for debugging.
func (o Op) String() string {
	resp := "pending"
	if !o.Pending() {
		resp = fmt.Sprintf("%d", o.RespondStep)
	}
	return fmt.Sprintf("op%d client=%d %s in=%q out=%q [%d,%s]",
		o.ID, o.Client, o.Kind, o.Input, o.Output, o.InvokeStep, resp)
}

// History is the sequence of operations observed at the clients of an
// execution, in invocation order, together with the fault events the kernel
// applied while producing it.
type History struct {
	Ops []Op
	// Faults records the injected fault events (drops, delays, scheduled
	// crashes and recoveries) in the order they occurred. It is empty for
	// fault-free runs.
	Faults []FaultRecord
	open   map[NodeID]int // client -> index in Ops of its outstanding op
	// doneWrites counts completed writes so drivers tracking write
	// concurrency need not rescan Ops after every delivery.
	doneWrites int
	// lastEnd tracks each client's latest response step for AppendOp's
	// incremental well-formedness check. Built lazily on first AppendOp.
	lastEnd map[NodeID]int
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{open: make(map[NodeID]int)}
}

// HistoryFromOps builds a History from externally recorded operations — the
// node runtime builds a run's pending tail from its OpFeed through this, and
// the interactive session its checked record. Ops must be ordered by
// InvokeStep; IDs are reassigned to slice order, and the open-operation
// index and completed-write count are rebuilt so the result behaves exactly
// like a kernel-recorded history. A client may have at most one pending
// operation (the well-formedness condition of Section 3).
func HistoryFromOps(ops []Op) (*History, error) {
	h := NewHistory()
	h.Ops = make([]Op, 0, len(ops))
	for _, op := range ops {
		if err := h.AppendOp(op); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// AppendOp appends one externally recorded operation, validating it
// incrementally under exactly the rules HistoryFromOps enforces in batch:
// nondecreasing InvokeStep, at most one pending operation per client, and no
// operation beginning before the client's previous one responded. The op's
// ID is reassigned to its slice position. A History fed exclusively through
// AppendOp is indistinguishable from one built by HistoryFromOps.
//
// AppendOp is the canonical implementation of the HistorySink interface;
// *History is the batch sink, an online checker is the streaming one.
func (h *History) AppendOp(op Op) error {
	if h.open == nil {
		h.open = make(map[NodeID]int)
	}
	if h.lastEnd == nil {
		h.lastEnd = make(map[NodeID]int, 8)
		for _, prev := range h.Ops {
			if !prev.Pending() {
				h.lastEnd[prev.Client] = prev.RespondStep
			}
		}
	}
	i := len(h.Ops)
	if i > 0 && op.InvokeStep < h.Ops[i-1].InvokeStep {
		return fmt.Errorf("ioa: ops out of invocation order at index %d", i)
	}
	// Well-formedness: a client's operations are sequential — nothing
	// may follow a pending op, and each op must begin no earlier than
	// the previous one's response.
	if prev, open := h.open[op.Client]; open {
		return fmt.Errorf("ioa: client %d has op %d after its pending op %d", op.Client, i, prev)
	}
	if end, seen := h.lastEnd[op.Client]; seen && op.InvokeStep < end {
		return fmt.Errorf("ioa: client %d op %d invoked at %d overlaps its previous op ending at %d", op.Client, i, op.InvokeStep, end)
	}
	op.ID = i
	if op.Pending() {
		h.open[op.Client] = i
	} else {
		if op.RespondStep < op.InvokeStep {
			return fmt.Errorf("ioa: op %d responds at %d before its invocation at %d", i, op.RespondStep, op.InvokeStep)
		}
		h.lastEnd[op.Client] = op.RespondStep
		if op.Kind == OpWrite {
			h.doneWrites++
		}
	}
	h.Ops = append(h.Ops, op)
	return nil
}

// clone returns a deep copy (Ops entries copied; value slices shared, they
// are immutable by the kernel's message contract).
func (h *History) clone() *History {
	out := &History{
		Ops:        make([]Op, len(h.Ops)),
		Faults:     append([]FaultRecord(nil), h.Faults...),
		open:       make(map[NodeID]int, len(h.open)),
		doneWrites: h.doneWrites,
	}
	copy(out.Ops, h.Ops)
	for k, v := range h.open {
		out.open[k] = v
	}
	if h.lastEnd != nil {
		out.lastEnd = make(map[NodeID]int, len(h.lastEnd))
		for k, v := range h.lastEnd {
			out.lastEnd[k] = v
		}
	}
	return out
}

// addFault appends a fault record.
func (h *History) addFault(r FaultRecord) { h.Faults = append(h.Faults, r) }

// beginOp appends a new pending operation and returns its ID.
func (h *History) beginOp(client NodeID, inv Invocation, step int) (int, error) {
	if _, busy := h.open[client]; busy {
		return 0, fmt.Errorf("ioa: client %d already has an outstanding operation", client)
	}
	id := len(h.Ops)
	h.Ops = append(h.Ops, Op{
		ID:          id,
		Client:      client,
		Kind:        inv.Kind,
		Input:       inv.Value,
		InvokeStep:  step,
		RespondStep: -1,
	})
	h.open[client] = id
	return id, nil
}

// endOp completes the outstanding operation of client.
func (h *History) endOp(client NodeID, resp Response, step int) error {
	idx, ok := h.open[client]
	if !ok {
		return fmt.Errorf("ioa: client %d responded with no outstanding operation", client)
	}
	op := &h.Ops[idx]
	if op.Kind != resp.Kind {
		return fmt.Errorf("ioa: client %d response kind %v does not match invocation kind %v", client, resp.Kind, op.Kind)
	}
	op.Output = resp.Value
	op.RespondStep = step
	if op.Kind == OpWrite {
		h.doneWrites++
	}
	if h.lastEnd != nil {
		h.lastEnd[client] = step
	}
	delete(h.open, client)
	return nil
}

// CompletedWrites returns the number of completed write operations.
func (h *History) CompletedWrites() int { return h.doneWrites }

// OpByID returns the operation with the given ID.
func (h *History) OpByID(id int) (Op, error) {
	if id < 0 || id >= len(h.Ops) {
		return Op{}, fmt.Errorf("ioa: no operation with id %d", id)
	}
	return h.Ops[id], nil
}

// Complete returns the completed operations.
func (h *History) Complete() []Op {
	out := make([]Op, 0, len(h.Ops))
	for _, op := range h.Ops {
		if !op.Pending() {
			out = append(out, op)
		}
	}
	return out
}

// PendingOps returns the operations still outstanding.
func (h *History) PendingOps() []Op {
	out := make([]Op, 0, len(h.open))
	for _, op := range h.Ops {
		if op.Pending() {
			out = append(out, op)
		}
	}
	return out
}
