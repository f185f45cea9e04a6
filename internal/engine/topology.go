package engine

import (
	"fmt"
)

// Emit sends a tuple downstream. Tuples must not be mutated after emission.
type Emit func(t *Tuple)

// ProcFunc processes one input tuple against its key group's state. The
// tuple is lent for the call: on the receive path it is the shard's one
// reusable record, whose key and string values are the pooled frame's own
// bytes (codec.Alias), so nothing is copied or allocated per tuple.
//
// Ownership rules:
//
//   - t, and every string read from it (Key, Str), is valid until ProcFunc
//     returns; the engine recycles t and the frame behind it after that.
//   - Read t or emit it as is; do not retain or mutate it. Clone what you
//     keep: the copy owns its strings.
//   - State and Table copy what they keep: a key or a field name read from t
//     may be stored in st as is.
//   - Emit has consumed a tuple when it returns: one built from t's strings
//     (t.NewTuple(t.Str("geo"), …), drawn from the shard's free list) may be
//     emitted as is.
//   - Anything else that outlives the call — a Go map keyed by t.Key, a slice
//     of values — takes strings.Clone.
type ProcFunc func(t *Tuple, st *State, emit Emit)

// FlushFunc runs once per key group at the end of each period (the engine's
// watermark tick) — windowed operators emit their results here.
type FlushFunc func(kg int, st *State, emit Emit)

// Operator is one vertex of the job DAG, parallelized over KeyGroups key
// groups (Section 3, Execution Model).
type Operator struct {
	Name      string
	KeyGroups int
	Proc      ProcFunc
	// Flush is optional (stateless or non-windowed operators omit it).
	Flush FlushFunc
	// Cost is the simulated CPU cost per input tuple in cost units
	// (default 1). Serialization costs are accounted separately by the
	// engine.
	Cost float64
}

// SourceFunc generates the input batch for one period.
type SourceFunc func(period int, emit Emit)

// PartSourceFunc generates part `part` of `parts` of the input batch for one
// period. Implementations must derive the share from (period, part, parts)
// deterministically such that the union over all parts of one period equals
// the parts=1 batch as a multiset, for any parts ≥ 1. The engine runs one
// generator: registered through AddSource, a PartSourceFunc runs as part 0 of
// 1, which is the whole batch. The split exists so the benchmark can measure
// what generating in parts costs: workload generators replay their
// per-period splitmix64 stream in every part and emit only every parts-th
// tuple.
type PartSourceFunc func(period, part, parts int, emit Emit)

// Source is an input operator running on the (external) input node.
type Source struct {
	Name string
	Gen  SourceFunc
}

// KeyBy extracts the partitioning key an edge should use (Storm's "fields
// grouping"). nil means the tuple's own Key.
type KeyBy func(*Tuple) string

// edge is a directed connection to a downstream operator.
type edge struct {
	op        int
	twoChoice bool  // PoTC routing: each key has two candidate key groups
	keyBy     KeyBy // optional per-edge partitioning key
}

// Topology is a job: sources feeding a DAG of operators.
type Topology struct {
	sources  []*Source
	ops      []*Operator
	srcEdges [][]int  // per source: downstream op ids
	opEdges  [][]edge // per op: downstream edges

	byName map[string]int // op name -> index
	srcIdx map[string]int // source name -> index

	built     bool
	opOffset  []int // global key-group id base per op
	numGroups int
	topoOrder []int
	errs      []error
}

// NewTopology returns an empty topology builder.
func NewTopology() *Topology {
	return &Topology{byName: map[string]int{}, srcIdx: map[string]int{}}
}

// AddSource registers an input source.
func (t *Topology) AddSource(name string, gen SourceFunc) *Topology {
	if _, dup := t.srcIdx[name]; dup {
		t.errs = append(t.errs, fmt.Errorf("engine: duplicate source %q", name))
		return t
	}
	if gen == nil {
		t.errs = append(t.errs, fmt.Errorf("engine: source %q has nil generator", name))
		return t
	}
	t.srcIdx[name] = len(t.sources)
	t.sources = append(t.sources, &Source{Name: name, Gen: gen})
	t.srcEdges = append(t.srcEdges, nil)
	return t
}

// AddOperator registers an operator.
func (t *Topology) AddOperator(op *Operator) *Topology {
	switch {
	case op.Name == "":
		t.errs = append(t.errs, fmt.Errorf("engine: operator with empty name"))
	case op.KeyGroups <= 0:
		t.errs = append(t.errs, fmt.Errorf("engine: operator %q has %d key groups", op.Name, op.KeyGroups))
	case op.Proc == nil:
		t.errs = append(t.errs, fmt.Errorf("engine: operator %q has nil Proc", op.Name))
	}
	if _, dup := t.byName[op.Name]; dup {
		t.errs = append(t.errs, fmt.Errorf("engine: duplicate operator %q", op.Name))
		return t
	}
	if _, dup := t.srcIdx[op.Name]; dup {
		t.errs = append(t.errs, fmt.Errorf("engine: operator %q collides with a source name", op.Name))
		return t
	}
	if op.Cost == 0 {
		op.Cost = 1
	}
	t.byName[op.Name] = len(t.ops)
	t.ops = append(t.ops, op)
	t.opEdges = append(t.opEdges, nil)
	return t
}

// Connect adds an edge from a source or operator to an operator,
// partitioned by the tuple's Key.
func (t *Topology) Connect(from, to string) *Topology { return t.connect(from, to, false, nil) }

// ConnectBy adds an edge partitioned by a custom key selector (Storm's
// fields grouping). Only supported on operator-to-operator edges.
func (t *Topology) ConnectBy(from, to string, keyBy KeyBy) *Topology {
	if keyBy == nil {
		t.errs = append(t.errs, fmt.Errorf("engine: ConnectBy %q -> %q with nil selector", from, to))
		return t
	}
	return t.connect(from, to, false, keyBy)
}

// ConnectTwoChoice adds an edge routed with the power of two choices (PoTC
// baseline): each key may go to either of two candidate key groups, and the
// sender balances between them.
func (t *Topology) ConnectTwoChoice(from, to string) *Topology {
	return t.connect(from, to, true, nil)
}

func (t *Topology) connect(from, to string, twoChoice bool, keyBy KeyBy) *Topology {
	toIdx, ok := t.byName[to]
	if !ok {
		t.errs = append(t.errs, fmt.Errorf("engine: connect %q -> %q: unknown operator %q", from, to, to))
		return t
	}
	if si, ok := t.srcIdx[from]; ok {
		if twoChoice || keyBy != nil {
			t.errs = append(t.errs, fmt.Errorf("engine: custom routing on source edge %q -> %q is not supported; apply it on an operator edge", from, to))
			return t
		}
		t.srcEdges[si] = append(t.srcEdges[si], toIdx)
		return t
	}
	if oi, ok := t.byName[from]; ok {
		t.opEdges[oi] = append(t.opEdges[oi], edge{op: toIdx, twoChoice: twoChoice, keyBy: keyBy})
		return t
	}
	t.errs = append(t.errs, fmt.Errorf("engine: connect %q -> %q: unknown origin %q", from, to, from))
	return t
}

// Build validates the topology (errors accumulated during construction, DAG
// check) and freezes it.
func (t *Topology) Build() error {
	if t.built {
		return fmt.Errorf("engine: topology already built")
	}
	if len(t.errs) > 0 {
		return t.errs[0]
	}
	if len(t.ops) == 0 {
		return fmt.Errorf("engine: topology has no operators")
	}
	if len(t.sources) == 0 {
		return fmt.Errorf("engine: topology has no sources")
	}
	// Topological order (Kahn); also detects cycles.
	indeg := make([]int, len(t.ops))
	for _, edges := range t.opEdges {
		for _, e := range edges {
			indeg[e.op]++
		}
	}
	var queue []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		t.topoOrder = append(t.topoOrder, v)
		for _, e := range t.opEdges[v] {
			indeg[e.op]--
			if indeg[e.op] == 0 {
				queue = append(queue, e.op)
			}
		}
	}
	if len(t.topoOrder) != len(t.ops) {
		return fmt.Errorf("engine: topology has a cycle")
	}
	// Global key-group ids.
	t.opOffset = make([]int, len(t.ops))
	gid := 0
	for i, op := range t.ops {
		t.opOffset[i] = gid
		gid += op.KeyGroups
	}
	t.numGroups = gid
	t.built = true
	return nil
}

// NumGroups returns the total number of key groups across all operators.
func (t *Topology) NumGroups() int { return t.numGroups }

// NumOps returns the number of operators.
func (t *Topology) NumOps() int { return len(t.ops) }

// OpKeyGroups returns the key-group count of operator i.
func (t *Topology) OpKeyGroups(i int) int { return t.ops[i].KeyGroups }

// OpOf returns the operator index and local key-group id of global group g.
func (t *Topology) OpOf(g int) (op, kg int) {
	for i := len(t.opOffset) - 1; i >= 0; i-- {
		if g >= t.opOffset[i] {
			return i, g - t.opOffset[i]
		}
	}
	return -1, -1
}

// GID returns the global key-group id of (op, kg).
func (t *Topology) GID(op, kg int) int { return t.opOffset[op] + kg }

// Downstream returns the downstream operator indices of op.
func (t *Topology) Downstream(op int) []int {
	out := make([]int, 0, len(t.opEdges[op]))
	for _, e := range t.opEdges[op] {
		out = append(out, e.op)
	}
	return out
}
