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
// for CPLEX as the one solver, held by the tests to the exact optimum of
// small instances found by enumeration, and a multilevel graph partitioner
// standing in for METIS).
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
// This file re-exports what the programs under cmd/ and examples/ use of the
// internal packages: building a topology, running an engine, and driving it
// with a controller and a balancer; see examples/ for runnable programs and
// cmd/albic-bench for the experiment harness regenerating the paper's
// Figures 2-14.
package repro

import (
	"repro/internal/baseline"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Streaming engine (internal/engine).
type (
	// Topology is a job: sources feeding a DAG of operators.
	Topology = engine.Topology
	// Operator is one vertex of the job DAG, parallelized over key groups.
	Operator = engine.Operator
	// Tuple is the data unit ⟨key, value, ts⟩ — what sources build, operators
	// receive, and both emit. A Proc's input is lent for the call (see
	// engine.ProcFunc): read it or emit it, Clone what you keep.
	Tuple = engine.Tuple
	// State is the migratable computation state of one key group: counters
	// and tables.
	State = engine.State
	// Emit sends a tuple downstream.
	Emit = engine.Emit
	// Engine executes a topology over worker-node goroutines.
	Engine = engine.Engine
	// EngineConfig tunes the engine's cost model.
	EngineConfig = engine.Config
)

// Reconfiguration stack (internal/core).
type (
	// Balancer computes plans from snapshots; Plan takes a context so the
	// controller can abort a solve still in flight when its run ends. Every
	// planner here implements it, the baselines too (they ignore ctx).
	Balancer = core.Balancer
	// MILPBalancer solves the integrated load-balancing MILP each period.
	MILPBalancer = core.MILPBalancer
	// ALBIC is Algorithm 2: autonomic load balancing with integrated
	// collocation.
	ALBIC = core.ALBIC
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

// Flux is the ICDE'03 pairwise-exchange balancer (internal/baseline).
type Flux = baseline.Flux

// JobConfig sizes the paper's Real Jobs (internal/workload).
type JobConfig = workload.JobConfig

// NewTopology returns an empty topology builder.
func NewTopology() *Topology { return engine.NewTopology() }

// NewEngine builds an engine for a topology (initial may be nil for a
// round-robin allocation).
func NewEngine(t *Topology, cfg EngineConfig, initial []int) (*Engine, error) {
	return engine.New(t, cfg, initial)
}

// RealJob1 is the paper's Wikipedia job (GeoHash → TopK → global TopK).
func RealJob1(cfg JobConfig) (*Topology, error) { return workload.RealJob1(cfg) }

// RealJob2 is the airline job with a perfect collocation available.
func RealJob2(cfg JobConfig) (*Topology, error) { return workload.RealJob2(cfg) }
