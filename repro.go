// Package repro is a from-scratch Go reproduction of
//
//	Madsen, Zhou, Cao: "Integrative Dynamic Reconfiguration in a Parallel
//	Stream Processing Engine" (arXiv:1602.03770, ICDE 2017 line of work).
//
// It bundles a Storm-style parallel stream processing engine (operators
// parallelized over key groups with migratable state), the paper's
// integrative reconfiguration stack — the MILP key-group allocator, the
// ALBIC collocation-aware balancer (Algorithm 2) and the adaptation
// framework (Algorithm 1) — plus the comparison baselines (Flux, PoTC,
// COLA) and every substrate they need (an anytime local search — greedy
// moves, swaps, batch moves and large-neighbourhood repacking — standing in
// for CPLEX as the one solver, held by the tests to an exact
// simplex/branch-and-bound oracle that no program links, and a multilevel
// graph partitioner standing in for METIS).
//
// Engine data path. The engine moves tuples through batch-oriented,
// lock-light machinery: every sender (worker node or the source-running
// engine goroutine) stages cross-node tuples in per-destination outboxes
// and ships one pooled, length-prefixed frame per (destination, operator)
// batch; mailboxes are unbounded MPSC queues whose producers append whole
// slices under one lock acquisition and whose consumer drains the entire
// backlog per wakeup. The correctness contract is the per-sender FIFO
// invariant: messages from one sender are delivered in send order — senders
// flush their outboxes before enqueuing a barrier, so a barrier can never
// overtake the data it covers, which is what the period/migration barrier
// protocol relies on (see internal/engine/mailbox.go and batch.go).
//
// One migration protocol. A reconfiguration executes at the period barrier,
// where the pipeline is drained: every shard is armed with the new routing
// before an old host ships state, so no tuple is in flight across a move and
// a key's tuples are never lost, duplicated or reordered (Engine.arm in
// internal/engine/engine.go).
//
// Integrative state handling. Key-group state lives in internal/statestore:
// a versioned, per-group incremental store (full snapshot + delta chains)
// shared by checkpoint-based fault tolerance and state migration. The
// controller checkpoints on a cadence; a planned move of a checkpointed
// group hands the checkpoint over with the state in one state message (the
// checkpoint as the base and the delta accumulated since, when the move
// crosses a process), at the boundary that runs the move. Only the delta is
// synchronous work, which is also how the planners price such moves: mc_k =
// min(|σ_k|, |Δ_k|) bytes.
//
// This file re-exports the public API from the internal packages; see
// examples/ for runnable programs and cmd/albic-bench for the experiment
// harness regenerating the paper's Figures 2-14.
package repro

import (
	"repro/internal/assign"
	"repro/internal/baseline"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/statestore"
	"repro/internal/workload"
)

// Streaming engine (internal/engine).
type (
	// Topology is a job: sources feeding a DAG of operators.
	Topology = engine.Topology
	// Operator is one vertex of the job DAG, parallelized over key groups.
	Operator = engine.Operator
	// Source generates a period's input batch.
	Source = engine.Source
	// SourceFunc is the generator signature.
	SourceFunc = engine.SourceFunc
	// Tuple is the data unit ⟨key, value, ts⟩ — what sources build, operators
	// receive, and both emit. A Proc's input is lent for the call (see
	// engine.ProcFunc): read it or emit it, Clone what you keep.
	Tuple = engine.Tuple
	// State is the migratable computation state of one key group.
	State = engine.State
	// Emit sends a tuple downstream.
	Emit = engine.Emit
	// KeyBy extracts a custom partitioning key for an edge.
	KeyBy = engine.KeyBy
	// Engine executes a topology over worker-node goroutines.
	Engine = engine.Engine
	// EngineConfig tunes the engine's cost model.
	EngineConfig = engine.Config
	// PeriodStats is one period's merged statistics.
	PeriodStats = engine.PeriodStats
	// CheckpointStats describes one incremental checkpoint of all key-group
	// states (extension, see internal/engine/checkpoint.go).
	CheckpointStats = engine.CheckpointStats
	// StateStore is the versioned, per-group incremental state store that
	// checkpointing and checkpoint-assisted migration share (full base
	// snapshots plus delta chains; see internal/statestore).
	StateStore = statestore.Store
)

// Reconfiguration stack (internal/core).
type (
	// Snapshot is the controller's statistics view of one period.
	Snapshot = core.Snapshot
	// Plan is a target key-group allocation.
	Plan = core.Plan
	// Balancer computes plans from snapshots; Plan takes a context so the
	// controller can abort a solve still in flight when its run ends. Every
	// planner here implements it, the baselines too (they ignore ctx).
	Balancer = core.Balancer
	// MILPBalancer solves the integrated load-balancing MILP each period.
	MILPBalancer = core.MILPBalancer
	// ALBIC is Algorithm 2: autonomic load balancing with integrated
	// collocation.
	ALBIC = core.ALBIC
	// Framework is Algorithm 1: the integrative adaptation framework.
	Framework = core.Framework
	// Scaler makes horizontal-scaling decisions.
	Scaler = core.Scaler
	// ScaleDecision is one period's scaling action.
	ScaleDecision = core.ScaleDecision
	// UtilizationScaler is the default utilization-band scaling policy.
	UtilizationScaler = core.UtilizationScaler
)

// Asynchronous control plane (internal/controller): the documented entry
// point for running a job under the integrative adaptation loop. The
// controller owns snapshotting, EWMA smoothing, calibration, the migration
// budget, planning and elasticity; in pipelined mode the planner overlaps
// the next period's data flow instead of stopping the data path, and period
// N's outcome applies at boundary N+1, which waits for a solve still
// running.
type (
	// Controller drives one engine through the adaptation loop.
	Controller = controller.Controller
	// ControllerOptions configures the loop (balancer, scaler, budgets,
	// smoothing, pipelining, checkpoint cadence, observation hook).
	ControllerOptions = controller.Options
	// ControllerMetrics is the recorded per-period metric series of a run.
	ControllerMetrics = controller.Metrics
	// PeriodReport is the per-period view handed to OnPeriod observers.
	PeriodReport = controller.PeriodReport
	// ControllerEngine is the data-plane surface the controller drives
	// (implemented by *Engine).
	ControllerEngine = controller.Engine
)

// NewController builds the adaptation loop around an engine.
func NewController(e ControllerEngine, opt ControllerOptions) *Controller {
	return controller.New(e, opt)
}

// Baselines (internal/baseline).
type (
	// Flux is the ICDE'03 pairwise-exchange balancer.
	Flux = baseline.Flux
	// COLA is the Middleware'09 graph-partitioning balancer.
	COLA = baseline.COLA
)

// Optimization problem layer (internal/assign).
type (
	// Problem is one invocation of the key-group allocation program.
	Problem = assign.Problem
	// ProblemItem is an indivisible migration unit.
	ProblemItem = assign.Item
	// Solution is a solved allocation.
	Solution = assign.Solution
	// SolveOptions configures the solver.
	SolveOptions = assign.Options
)

// Paper workloads (internal/workload).
type (
	// JobConfig sizes the paper's Real Jobs.
	JobConfig = workload.JobConfig
	// WikipediaConfig tunes the Wikipedia edit-history simulator.
	WikipediaConfig = workload.WikipediaConfig
	// AirlineConfig tunes the airline on-time simulator.
	AirlineConfig = workload.AirlineConfig
	// WeatherConfig tunes the GSOD weather simulator.
	WeatherConfig = workload.WeatherConfig
)

// NewTopology returns an empty topology builder.
func NewTopology() *Topology { return engine.NewTopology() }

// NewEngine builds an engine for a topology (initial may be nil for a
// round-robin allocation).
func NewEngine(t *Topology, cfg EngineConfig, initial []int) (*Engine, error) {
	return engine.New(t, cfg, initial)
}

// NewState returns an empty key-group state.
func NewState() *State { return engine.NewState() }

// NewTuple returns a tuple from the global pool with its key and timestamp
// set — the allocation-free way for sources and Flush callbacks to build
// output; Emit returns it there. Do not retain, mutate or re-emit it
// afterwards. Inside a Proc callback prefer the input's NewTuple, which draws
// from the processing shard's free list.
func NewTuple(key string, ts int64) *Tuple { return engine.NewTuple(key, ts) }

// Solve runs the anytime (or exact) solver on an allocation problem.
func Solve(p *Problem, opt SolveOptions) (*Solution, error) { return assign.Solve(p, opt) }

// RealJob1 is the paper's Wikipedia job (GeoHash → TopK → global TopK).
func RealJob1(cfg JobConfig) (*Topology, error) { return workload.RealJob1(cfg) }

// RealJob2 is the airline job with a perfect collocation available.
func RealJob2(cfg JobConfig) (*Topology, error) { return workload.RealJob2(cfg) }

// RealJob3 adds the route-keyed operator (halves obtainable collocation).
func RealJob3(cfg JobConfig) (*Topology, error) { return workload.RealJob3(cfg) }

// RealJob4 adds the weather/rainscore join pipeline.
func RealJob4(cfg JobConfig) (*Topology, error) { return workload.RealJob4(cfg) }

// WikipediaSource returns the Wikipedia edit-history simulator.
func WikipediaSource(cfg WikipediaConfig) SourceFunc { return workload.Wikipedia(cfg) }

// AirlineSource returns the airline on-time simulator.
func AirlineSource(cfg AirlineConfig) SourceFunc { return workload.Airline(cfg) }

// WeatherSource returns the GSOD weather simulator.
func WeatherSource(cfg WeatherConfig) SourceFunc { return workload.Weather(cfg) }
