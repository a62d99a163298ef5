// Package pdes runs one topology simulation across many cores: conservative
// parallel discrete-event simulation with sharded engines synchronized by a
// barrier-window protocol whose lookahead is the minimum link propagation
// delay.
//
// # Design
//
// The topology is partitioned into shards (topo.Partition): contiguous runs
// of a BFS linearization of the switch graph, balanced by event weight, with
// explicit per-node pins honored. Each shard compiles a replica of the spec
// on its own engine with the same seed, then activates only the flows whose
// endpoints it owns (sends from local sources, auto-reads at local sinks,
// telemetry on local connections), so foreign replicas stay silent and
// execute no events. The replica comes in two shapes, chosen by New from
// the spec:
//
//   - Sparse, wherever the spec is eligible: only the owned nodes, the
//     one-hop stubs across cut links, and the nodes traversed by flows whose
//     packets touch the shard (topo.BuildSubset). Skipped foreign
//     handshakes become exact clock advances (sim.AdvanceTo) of their
//     reference durations, recorded by one throwaway full compile in New;
//     any timing deviation is detected at compile, not silently diverged.
//     Memory is O(shard + cut).
//   - Full, the fallback (Runner.SparseFallback says why) and the
//     equivalence reference: the entire spec, everywhere. Construction,
//     addressing, and TCP handshakes are trivially bit-identical across
//     shards, at O(topology) memory per shard.
//
// Every shard engine runs the timing wheel. The coordinator polls shards
// with horizon-bounded peeks (sim.NextEventAtWithin), which never cascade
// timers past the horizon, so a full replica's wheel — spanning the whole
// simulated time with only a shard's slice of the events — stays as cheap
// to poll per window as a sparse one's.
//
// Packets reach foreign nodes through boundary ports: on each shard, every
// cut-link direction whose receiver is foreign gets a phys handoff hook that
// clones the packet at serialization-complete time and queues it into a
// per-destination-shard slot as a time-stamped cross-shard message (arrival
// = now + propagation). Messages are exchanged at window barriers: all
// shards run [W, W+L) where L, the lookahead, is the minimum propagation
// delay over all links; a message created in a window arrives no earlier
// than the next (arrival >= ct + L), so injecting each window's messages at
// its barrier can never violate causality. When every shard is idle the
// coordinator fast-forwards to the window containing the earliest future
// work — the deterministic equivalent of a null message ("nothing before
// t") — so idle grids cost barriers, not simulated windows.
//
// The shards synchronize on a sense-reversing barrier whose last arriver
// runs the coordinator logic in-line and releases everyone with one atomic
// flip; waiters spin, yield, then park on a condition variable (barrier.go,
// spin.go). Once a terminal action is published every shard sends one final
// report — its results or its panic — on the run's report channel, and Run
// collects them.
//
// # Determinism
//
// The crown-jewel constraint: telemetry, metrics, and fabric counters are
// byte-identical for every shard count and replica shape. The mechanisms
// that carry the proof:
//
//   - Event order. Engines order events by (time, creation time, seq);
//     cross-shard deliveries are injected with the sender-side creation time
//     (sim.InjectCall), which puts them exactly where the single-engine run
//     created them. Within one barrier delivery batch, messages are sorted
//     by (arrival, ct, source shard, source sequence, link, direction).
//   - Window grid. The lookahead uses ALL links, not just cut links, so the
//     grid — and the window-quantized stopping point — is independent of
//     where the partition falls. Every shard count executes the same event
//     set, including the tail events between the last flow's completion and
//     its window's end.
//   - Compile alignment. Full replicas replay the whole construction;
//     sparse replicas replay exactly the slice of it their packets can
//     observe and advance the clock over the rest, with per-flow quiescence
//     and handshake-duration equality asserted against the reference
//     compile (topo.CompileSubset) — so every replica enters the window
//     loop at the same t0 with the same local state the full compile
//     produces.
//   - Engine counters. Executed sums exactly (each event runs on one shard;
//     a boundary crossing costs one wireDone at the source plus one injected
//     delivery at the destination, same as the single engine). HighWater is
//     reconstructed from per-event liveness atoms via a canonical
//     content-sorted replay (sim.ReplayHighWater), reported identically for
//     every shard count including one.
//   - Fault streams. Each scripted link direction owns a private rng seeded
//     by netem.StreamSeed(seed, link, direction) — a pure function of the
//     spec, not of compile order — and scripts apply lazily on packet
//     arrival (no engine events). Every packet of a direction is judged by
//     exactly one shard's Impair (the owner of the receiving end) in
//     single-engine event order, so fault draws, and therefore outcomes,
//     are identical at every shard count.
package pdes

import (
	"fmt"
	"time"

	"tengig/internal/netem"
	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// Replica is the shape of the spec a shard compiles. New picks it from the
// spec: sparse where eligible, full otherwise (Runner.SparseFallback reports
// why).
type Replica uint8

const (
	// replicaAuto is New's request: sparse where eligible, else full.
	replicaAuto Replica = iota
	// ReplicaFull compiles the whole spec on every shard.
	ReplicaFull
	// ReplicaSparse compiles each shard's subset only.
	ReplicaSparse
)

func (m Replica) String() string {
	switch m {
	case ReplicaFull:
		return "full"
	case ReplicaSparse:
		return "sparse"
	}
	return "auto"
}

// Options configures a parallel run.
type Options struct {
	// Shards is the engine count (>= 1). 1 is the degenerate single-engine
	// case, still window-quantized so its output is byte-identical to any
	// other shard count.
	Shards int
	// Seed seeds every shard's engine (construction is replicated, so the
	// replicas stay in lockstep through compile).
	Seed int64
	// Timeout bounds the run in simulated time (default 10 minutes, the
	// same bound topo.Network.RunFlows uses).
	Timeout units.Time
	// Telemetry, when non-nil, records per-connection instruments on each
	// connection's owning shard and merges them into Result.Bundle. It also
	// enables the liveness ledger that reconstructs HighWater.
	Telemetry *telemetry.Options
	// Metrics folds the run into a fleet-level metrics accumulator.
	Metrics bool

	// replica lets package tests force ReplicaFull (the equivalence
	// reference) or ReplicaSparse (New fails if the spec is ineligible);
	// the zero value picks sparse where eligible.
	replica Replica
}

// Result is a completed parallel run.
type Result struct {
	// Flows holds one result per declared flow, in declaration order —
	// identical to what topo.Network.RunFlows reports.
	Flows []topo.FlowResult
	// Events is the reconstructed single-engine event count.
	Events uint64
	// HighWater is the reconstructed live-event high-water mark (0 unless
	// Telemetry enabled the ledger).
	HighWater int
	// Bundle is the merged telemetry (nil without Options.Telemetry).
	Bundle *telemetry.Bundle
	// Fabric holds per-switch counters in declaration order, each taken
	// from the switch's owning shard.
	Fabric []telemetry.FabricCounters
	// Metrics is the fleet accumulator (nil without Options.Metrics).
	Metrics *telemetry.MetricsAccumulator
	// Plan records how the topology was partitioned.
	Plan *topo.PartitionPlan
	// Windows counts executed barrier windows (diagnostics).
	Windows uint64
	// SyncWall is wall-clock time shards spent blocked on window
	// synchronization, summed over shards (diagnostics; divide by
	// Plan.Shards * Windows for the mean per-shard window sync cost).
	SyncWall time.Duration
}

// sparseRef is the reference full compile's fingerprint, recorded once in
// New and checked against every sparse replica.
type sparseRef struct {
	t0       units.Time
	compiled uint64
	hw       int
}

// Runner executes a topology under conservative parallel DES. A Runner is
// reusable: engines are warmed once and Reset between runs, so repeated Run
// calls (benchmarks) pay no construction-allocation cost beyond compile.
type Runner struct {
	spec    *topo.Spec
	plan    *topo.PartitionPlan
	opts    Options
	replica Replica // resolved: ReplicaFull or ReplicaSparse
	engines []*sim.Engine

	// Sparse-replica state (nil/zero under ReplicaFull).
	subs           []*topo.Subset
	ref            sparseRef
	sparseFallback error
}

// New partitions the spec and validates that a parallel run can be exact.
// With more than one shard it also runs one throwaway reference compile to
// record per-flow handshake clocks and build each shard's sparse subset,
// falling back to full replicas when the spec is ineligible.
func New(spec *topo.Spec, opts Options) (*Runner, error) {
	if opts.Shards == 0 {
		opts.Shards = spec.Shards
	}
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	if opts.Timeout == 0 {
		opts.Timeout = 10 * units.Minute
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	plan, err := topo.Partition(spec, opts.Shards)
	if err != nil {
		return nil, err
	}
	// A single shard compiles everything either way, so it takes the plain
	// full-compile path.
	r := &Runner{spec: spec, plan: plan, opts: opts, replica: ReplicaFull}
	if opts.Shards > 1 && opts.replica != ReplicaFull {
		if err := r.prepareSparse(); err != nil {
			if opts.replica == ReplicaSparse {
				return nil, err
			}
			r.sparseFallback = err
		}
	}
	return r, nil
}

// prepareSparse runs the reference full compile on a scratch engine,
// recording the clock after each flow's handshake and asserting per-flow
// quiescence, then builds each shard's subset from the partition and the
// per-flow FIB walks. The scratch engine and network are dropped afterwards,
// so the retained per-shard cost is the subsets alone.
func (r *Runner) prepareSparse() error {
	spec := r.spec
	eng := sim.NewEngine(r.opts.Seed)
	connT := make([]units.Time, len(spec.Flows))
	pendAfter := -1
	obs := &topo.CompileObserver{AfterConnect: func(i int) {
		connT[i] = eng.Now()
		if pendAfter < 0 && eng.Pending() != 0 {
			pendAfter = i
		}
	}}
	if _, err := topo.CompileObserved(eng, spec, r.opts.Seed, obs); err != nil {
		return fmt.Errorf("pdes: sparse reference compile: %w", err)
	}
	if pendAfter >= 0 {
		return fmt.Errorf("pdes: topo %s: flow %d's handshake leaves events pending; sparse replicas need per-flow compile quiescence",
			spec.Name, pendAfter)
	}
	// A fault step due during compile could impair handshake packets and
	// consume rng draws; a sparse subset skips foreign flows' handshakes, so
	// its Impairs would enter the window loop at a different stream position
	// than the full compile's. Steps strictly after the compile horizon
	// cannot: every knob is zero while handshakes run, no draws happen, and
	// the streams of full and sparse replicas are aligned at position 0.
	for li := range spec.Links {
		l := &spec.Links[li]
		if l.Faults == nil {
			continue
		}
		for _, s := range []netem.Script{l.Faults.AtoB, l.Faults.BtoA} {
			for _, st := range s {
				if st.At <= eng.Now() {
					return fmt.Errorf("pdes: topo %s: link %s fault step at %v is inside the compile horizon (handshakes end at %v); sparse replicas need fault-free compiles",
						spec.Name, l.EffectiveName(), st.At, eng.Now())
				}
			}
		}
	}
	paths, err := topo.FlowPaths(spec)
	if err != nil {
		return fmt.Errorf("pdes: topo %s: sparse replicas ineligible: %w", spec.Name, err)
	}
	r.subs = make([]*topo.Subset, r.plan.Shards)
	for i := range r.subs {
		r.subs[i] = topo.BuildSubset(spec, r.plan, i, paths)
		r.subs[i].ConnectAt = connT
	}
	r.ref = sparseRef{t0: eng.Now(), compiled: eng.Executed, hw: eng.HighWater}
	r.replica = ReplicaSparse
	return nil
}

// Plan returns the partition the runner will execute.
func (r *Runner) Plan() *topo.PartitionPlan { return r.plan }

// Replica reports the replica shape the run will use.
func (r *Runner) Replica() Replica { return r.replica }

// SparseFallback reports why New fell back to full replicas (nil when sparse
// was used or never attempted).
func (r *Runner) SparseFallback() error { return r.sparseFallback }

// Run executes the flows to completion and merges the shards' outputs.
func (r *Runner) Run() (*Result, error) {
	if r.engines == nil {
		r.engines = make([]*sim.Engine, r.plan.Shards)
		for i := range r.engines {
			r.engines[i] = sim.NewEngine(r.opts.Seed)
		}
	} else {
		for _, eng := range r.engines {
			eng.Reset(r.opts.Seed)
		}
	}
	n := r.plan.Shards
	sp := newSpinState(r)
	res := make(chan shardRes, n)
	for i := 0; i < n; i++ {
		go r.runShard(i, sp, res)
	}

	// Setup barrier: every shard compiles its replica and reports the
	// construction fingerprint.
	setups := make([]shardRes, n)
	alive := n
	var setupErr error
	for i := 0; i < n; i++ {
		m := <-res
		setups[m.shard] = m
		if m.err != nil {
			alive--
			if setupErr == nil {
				setupErr = m.err
			}
		}
	}
	if setupErr == nil {
		setupErr = r.checkSetups(setups)
	}
	c := newCoord(r, setups[0].t0, len(r.spec.Flows))
	act := action{kind: actError, err: setupErr}
	startLive := 0
	if setupErr == nil {
		// First action from the exact setup reports.
		for i := range setups {
			sp.nextAt[i], sp.hasNext[i] = setups[i].nextAt, setups[i].hasNext
			startLive += setups[i].startLive
		}
		act = c.step(sp.nextAt, sp.hasNext, sp.beyond)
	}

	// Hand the window loop to the shards. Every live shard sends exactly one
	// final report — its results or its PanicError — once it sees the
	// terminal action, so one collect both gathers results and joins the
	// goroutines on every path.
	sp.c = c
	sp.cur = act
	close(sp.start)
	finals := make([]shardRes, n)
	var finalErr error
	for i := 0; i < alive; i++ {
		m := <-res
		finals[m.shard] = m
		if m.err != nil && finalErr == nil {
			finalErr = m.err
		}
	}
	// The shards read the terminal action before reporting, so sp.cur is
	// final here.
	act = sp.cur
	switch {
	case act.kind == actError:
		return nil, act.err
	case finalErr != nil:
		return nil, finalErr
	case act.kind == actDone:
		return r.merge(finals, setups, c, startLive)
	case act.kind == actStalled:
		return nil, r.incompleteErr(finals, true, c.lastEnd)
	case act.kind == actTimeout:
		return nil, r.incompleteErr(finals, false, c.lastEnd)
	}
	return nil, fmt.Errorf("pdes: topo %s: coordinator reached unexpected terminal state %d", r.spec.Name, act.kind)
}

// checkSetups cross-checks the shards' construction fingerprints. Full
// replicas must agree on everything; sparse replicas execute different
// slices of the construction, but the subset compile already asserted
// per-flow clock equality, so t0 against the reference is the residual
// invariant.
func (r *Runner) checkSetups(setups []shardRes) error {
	t0 := setups[0].t0
	for i := range setups {
		bad := setups[i].t0 != t0
		if r.replica == ReplicaSparse {
			bad = setups[i].t0 != r.ref.t0
		} else {
			bad = bad || setups[i].executed != setups[0].executed || setups[i].hwCompile != setups[0].hwCompile
		}
		if bad {
			return fmt.Errorf("pdes: topo %s: shard %d replica diverged during compile (t0 %v vs %v, events %d vs %d): construction is not deterministic",
				r.spec.Name, i, setups[i].t0, t0, setups[i].executed, setups[0].executed)
		}
	}
	return nil
}

// unitsMax is a sentinel beyond any simulated time.
const unitsMax = units.Time(1<<63 - 1)

// incompleteErr builds the typed timeout/stall error from final flow state.
func (r *Runner) incompleteErr(finals []shardRes, stalled bool, at units.Time) error {
	e := &topo.IncompleteFlowsError{
		Topo: r.spec.Name, Timeout: r.opts.Timeout, Stalled: stalled, At: at,
	}
	for i := range r.spec.Flows {
		f := r.resolvedFlow(i)
		dst := finals[r.plan.Owner[f.Dst]]
		if len(dst.doneAt) <= i || dst.doneAt[i] != 0 {
			continue
		}
		e.Incomplete = append(e.Incomplete, topo.IncompleteFlow{
			Flow: f.Src + "->" + f.Dst, Src: f.Src, Dst: f.Dst,
			Received: dst.received[i], Total: int64(f.Count) * int64(f.Payload),
		})
	}
	return e
}

// resolvedFlow returns flow i with the spec defaults applied.
func (r *Runner) resolvedFlow(i int) topo.FlowSpec {
	f := r.spec.Flows[i]
	if f.Count == 0 {
		f.Count = topo.DefaultFlowCount
	}
	if f.Payload == 0 {
		f.Payload = topo.DefaultFlowPayload
	}
	return f
}
