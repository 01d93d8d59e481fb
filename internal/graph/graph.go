// Package graph implements the dependency-graph machinery ezBFT's execution
// protocol requires (paper §IV-B): commands and their dependencies form a
// directed graph with potential cycles; strongly connected components are
// identified, sorted in inverse topological order, and the commands within
// each component are executed in sequence-number order, breaking ties with
// replica identifiers.
//
// All orderings produced here are deterministic functions of the graph
// contents — never of map iteration order — because every correct replica
// must execute interfering commands identically.
//
// A DepGraph is reusable: Reset empties it without releasing its internal
// scratch, so a replica can keep one graph per execution path and linearize
// closure after closure without allocating (see Linearize).
package graph

import (
	"slices"

	"ezbft/internal/types"
)

// Span marks one strongly connected component inside a linearization: the
// half-open index range [Start, End) of the order slice returned alongside
// it. Spans appear in inverse topological order of the condensation.
type Span struct {
	Start, End int
}

// DepGraph is a dependency graph over command instances. Add every instance
// participating in execution, then call ExecutionOrder or Linearize. Edges
// to instances that were never added (dependencies already executed, or not
// yet ready) are ignored; the caller decides which instances participate.
type DepGraph struct {
	seq   map[types.InstanceID]types.SeqNumber
	deps  map[types.InstanceID]types.InstanceSet
	order []types.InstanceID // insertion order (deduplicated), for determinism

	// Reusable scratch for Linearize; grown once, kept across Reset.
	nodes   []types.InstanceID
	index   map[types.InstanceID]int
	csr     []int // concatenated adjacency lists (node indices)
	csrOff  []int // per-node offsets into csr (len = n+1)
	idx     []int
	low     []int
	onStack []bool
	stack   []int
	frames  []frame
	lin     []types.InstanceID
	spans   []Span
}

type frame struct {
	v, ei int
}

// NewDepGraph returns an empty graph.
func NewDepGraph() *DepGraph {
	return &DepGraph{
		seq:  make(map[types.InstanceID]types.SeqNumber),
		deps: make(map[types.InstanceID]types.InstanceSet),
	}
}

// Reset empties the graph for reuse, keeping all internal capacity. Borrowed
// dependency sets (see Add) are released.
func (g *DepGraph) Reset() {
	clear(g.seq)
	clear(g.deps)
	g.order = g.order[:0]
}

// Len returns the number of nodes.
func (g *DepGraph) Len() int { return len(g.seq) }

// Has reports whether an instance was added.
func (g *DepGraph) Has(id types.InstanceID) bool {
	_, ok := g.seq[id]
	return ok
}

// Add inserts an instance with its committed sequence number and dependency
// set. Re-adding an instance overwrites its attributes (last write wins).
// The graph borrows deps rather than copying it: the caller must not mutate
// the set until the graph is Reset or discarded. (Execution closures pass
// the committed, immutable dependency sets straight from the log, so the
// borrow is free.)
func (g *DepGraph) Add(id types.InstanceID, seq types.SeqNumber, deps types.InstanceSet) {
	if _, exists := g.seq[id]; !exists {
		g.order = append(g.order, id)
	}
	g.seq[id] = seq
	g.deps[id] = deps
}

// grow readies the scratch arrays for n nodes.
func (g *DepGraph) grow(n int) {
	if cap(g.nodes) < n {
		g.nodes = make([]types.InstanceID, n)
		g.idx = make([]int, n)
		g.low = make([]int, n)
		g.onStack = make([]bool, n)
		g.csrOff = make([]int, n+1)
	}
	g.nodes = g.nodes[:n]
	g.idx = g.idx[:n]
	g.low = g.low[:n]
	g.onStack = g.onStack[:n]
	g.csrOff = g.csrOff[:n+1]
	if g.index == nil {
		g.index = make(map[types.InstanceID]int, n)
	} else {
		clear(g.index)
	}
}

// Linearize computes the paper's execution order in one pass: the returned
// order lists every instance — SCCs in inverse topological order of the
// condensation, members of each SCC sorted by sequence number (ties broken
// by space, then slot) — and spans marks each SCC's range within it.
//
// Both returned slices are graph-owned scratch: they are valid until the
// next Linearize, SCCs, ExecutionOrder, or Reset call, and must be copied
// to outlive it.
func (g *DepGraph) Linearize() (order []types.InstanceID, spans []Span) {
	n := len(g.order)
	g.lin = g.lin[:0]
	g.spans = g.spans[:0]
	if n == 0 {
		return g.lin, g.spans
	}
	g.grow(n)
	// Deterministic node indexing: sorted instance order.
	copy(g.nodes, g.order)
	slices.SortFunc(g.nodes, types.InstanceID.Compare)
	for i, id := range g.nodes {
		g.index[id] = i
	}
	// Deterministic adjacency in CSR form: per-node edge lists sorted by
	// target index. Node indices follow instance order and a dependency set
	// is itself in instance order, so the lists come out sorted as they are
	// written. Edges only to present nodes.
	g.csr = g.csr[:0]
	for i, id := range g.nodes {
		g.csrOff[i] = len(g.csr)
		for _, dep := range g.deps[id] {
			if j, ok := g.index[dep]; ok && j != i {
				g.csr = append(g.csr, j)
			}
		}
	}
	g.csrOff[n] = len(g.csr)

	const unvisited = -1
	for i := range g.idx {
		g.idx[i] = unvisited
	}
	g.stack = g.stack[:0]
	g.frames = g.frames[:0]
	counter := 0

	// Iterative Tarjan (recursion would overflow on the long dependency
	// chains contended workloads create).
	for root := 0; root < n; root++ {
		if g.idx[root] != unvisited {
			continue
		}
		g.frames = append(g.frames, frame{v: root})
		g.idx[root] = counter
		g.low[root] = counter
		counter++
		g.stack = append(g.stack, root)
		g.onStack[root] = true

		for len(g.frames) > 0 {
			f := &g.frames[len(g.frames)-1]
			if adjEnd := g.csrOff[f.v+1]; g.csrOff[f.v]+f.ei < adjEnd {
				w := g.csr[g.csrOff[f.v]+f.ei]
				f.ei++
				if g.idx[w] == unvisited {
					g.idx[w] = counter
					g.low[w] = counter
					counter++
					g.stack = append(g.stack, w)
					g.onStack[w] = true
					g.frames = append(g.frames, frame{v: w})
				} else if g.onStack[w] && g.idx[w] < g.low[f.v] {
					g.low[f.v] = g.idx[w]
				}
				continue
			}
			// Post-order: pop frame, maybe emit SCC.
			v := f.v
			g.frames = g.frames[:len(g.frames)-1]
			if len(g.frames) > 0 {
				p := g.frames[len(g.frames)-1].v
				if g.low[v] < g.low[p] {
					g.low[p] = g.low[v]
				}
			}
			if g.low[v] == g.idx[v] {
				start := len(g.lin)
				for {
					w := g.stack[len(g.stack)-1]
					g.stack = g.stack[:len(g.stack)-1]
					g.onStack[w] = false
					g.lin = append(g.lin, g.nodes[w])
					if w == v {
						break
					}
				}
				g.spans = append(g.spans, Span{Start: start, End: len(g.lin)})
			}
		}
	}
	// Within each SCC: sequence-number order, ties broken by space then slot.
	for _, sp := range g.spans {
		comp := g.lin[sp.Start:sp.End]
		slices.SortFunc(comp, func(a, b types.InstanceID) int {
			sa, sb := g.seq[a], g.seq[b]
			switch {
			case sa < sb:
				return -1
			case sa > sb:
				return 1
			}
			return a.Compare(b)
		})
	}
	return g.lin, g.spans
}

// SCCs returns the strongly connected components in inverse topological
// order of the condensation: every component appears after the components
// it depends on. This is exactly the paper's execution order over
// components. Each returned component is freshly allocated; members appear
// in sequence-number order (see Linearize).
func (g *DepGraph) SCCs() [][]types.InstanceID {
	order, spans := g.Linearize()
	if len(spans) == 0 {
		return nil
	}
	out := make([][]types.InstanceID, len(spans))
	for i, sp := range spans {
		comp := make([]types.InstanceID, sp.End-sp.Start)
		copy(comp, order[sp.Start:sp.End])
		out[i] = comp
	}
	return out
}

// ExecutionOrder linearizes the graph per the paper: SCCs in inverse
// topological order; within each SCC, commands sorted by sequence number,
// ties broken by replica identifier (then slot, for full determinism). The
// returned slice is freshly allocated and the caller's to keep.
func (g *DepGraph) ExecutionOrder() []types.InstanceID {
	order, _ := g.Linearize()
	out := make([]types.InstanceID, len(order))
	copy(out, order)
	return out
}
