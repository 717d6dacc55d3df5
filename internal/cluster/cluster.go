// Package cluster defines the common shape of a deployed register emulation:
// a simulated system plus the roles of its nodes. Algorithm packages (abd,
// cas, coded) produce Clusters; the workload driver and the adversary
// machinery consume them uniformly.
package cluster

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/quorum"
)

// Conventional node-id ranges. Servers, writers and readers share the ioa
// namespace; these offsets keep them disjoint and recognizable in traces.
const (
	ServerBase = 1
	WriterBase = 101
	ReaderBase = 201
)

// Cluster is a deployed register emulation.
type Cluster struct {
	// Name identifies the algorithm (e.g. "abd-mwmr", "cas").
	Name string
	// Sys is the simulated system containing all nodes.
	Sys *ioa.System
	// Servers, Writers, Readers list node ids by role, ascending.
	Servers []ioa.NodeID
	Writers []ioa.NodeID
	Readers []ioa.NodeID
	// F is the number of crash failures the deployment tolerates.
	F int
	// Profile classifies the write protocol per Section 6.1.
	Profile quorum.WriteProfile
}

// Builder constructs a fresh, deterministic deployment. The adversary
// machinery rebuilds clusters repeatedly to construct execution families
// (one execution per value pair).
type Builder func() (*Cluster, error)

// ServerIDs returns the conventional server ids 1..n.
func ServerIDs(n int) []ioa.NodeID {
	out := make([]ioa.NodeID, n)
	for i := range out {
		out[i] = ioa.NodeID(ServerBase + i)
	}
	return out
}

// WriterIDs returns the conventional writer ids.
func WriterIDs(n int) []ioa.NodeID {
	out := make([]ioa.NodeID, n)
	for i := range out {
		out[i] = ioa.NodeID(WriterBase + i)
	}
	return out
}

// ReaderIDs returns the conventional reader ids.
func ReaderIDs(n int) []ioa.NodeID {
	return ReaderIDsAfter(0, n)
}

// ReaderIDsAfter returns n reader ids placed after a deployment with the
// given writer count. The fixed WriterBase..ReaderBase gap fits 100 writers;
// a larger deployment shifts the reader range up past the writers instead of
// colliding with them ("duplicate node id"). Deployments that fit the fixed
// ranges keep their historical ids, so simulator fingerprints are unchanged.
func ReaderIDsAfter(writers, n int) []ioa.NodeID {
	base := ReaderBase
	if WriterBase+writers > base {
		base = WriterBase + writers
	}
	out := make([]ioa.NodeID, n)
	for i := range out {
		out[i] = ioa.NodeID(base + i)
	}
	return out
}

// ValidateRoleCounts checks a deployment's requested client counts; every
// algorithm deploy (abd, cas, coded) applies the same rule, so it lives
// here. The algorithm name only decorates the error.
func ValidateRoleCounts(algorithm string, writers, readers int) error {
	if writers < 1 || readers < 0 {
		return fmt.Errorf("%s: need at least one writer and no negative reader count (writers=%d readers=%d)",
			algorithm, writers, readers)
	}
	return nil
}

// Automaton returns the node automaton registered under id. Execution
// backends other than the simulator (see internal/live) pull the automata
// out of the deployment through this: the System is only the registry, and
// the backend drives each automaton itself.
func (c *Cluster) Automaton(id ioa.NodeID) (ioa.Node, error) {
	return c.Sys.Node(id)
}

// ClientAutomaton returns the client automaton registered under id.
func (c *Cluster) ClientAutomaton(id ioa.NodeID) (ioa.Client, error) {
	n, err := c.Sys.Node(id)
	if err != nil {
		return nil, err
	}
	cl, ok := n.(ioa.Client)
	if !ok {
		return nil, fmt.Errorf("cluster: node %d is not a client", id)
	}
	return cl, nil
}

// Validate performs basic shape checks.
func (c *Cluster) Validate() error {
	if c.Sys == nil {
		return fmt.Errorf("cluster: nil system")
	}
	if len(c.Servers) == 0 {
		return fmt.Errorf("cluster: no servers")
	}
	if len(c.Writers) == 0 {
		return fmt.Errorf("cluster: no writers")
	}
	if c.F < 0 || c.F >= len(c.Servers) {
		return fmt.Errorf("cluster: f=%d out of range for %d servers", c.F, len(c.Servers))
	}
	return nil
}

// WithSystem returns a shallow copy of the cluster bound to a different
// system instance (e.g. one restored from a snapshot).
func (c *Cluster) WithSystem(sys *ioa.System) *Cluster {
	cp := *c
	cp.Sys = sys
	return &cp
}
