package pdes

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tengig/internal/netem"
	"tengig/internal/runner"
	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/topo"
	"tengig/internal/units"
)

const examplesDir = "../../examples/topologies"

func loadSpec(t *testing.T, name string) *topo.Spec {
	t.Helper()
	s, err := topo.Load(filepath.Join(examplesDir, name))
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	return s
}

func runMode(t *testing.T, spec *topo.Spec, shards int, rep Replica) *Result {
	t.Helper()
	r, err := New(spec, Options{
		Shards:    shards,
		Seed:      42,
		Telemetry: &telemetry.Options{Enabled: true},
		Metrics:   true,
		replica:   rep,
	})
	if err != nil {
		t.Fatalf("%s: New(shards=%d,%v): %v", spec.Name, shards, rep, err)
	}
	if rep == ReplicaSparse {
		if got := r.Replica(); got != ReplicaSparse {
			t.Fatalf("%s: asked for sparse replicas, runner picked %v (fallback: %v)",
				spec.Name, got, r.SparseFallback())
		}
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("%s: Run(shards=%d,%v): %v", spec.Name, shards, rep, err)
	}
	return res
}

func runShards(t *testing.T, spec *topo.Spec, shards int) *Result {
	t.Helper()
	return runMode(t, spec, shards, replicaAuto)
}

// eqModes is the replica matrix the equivalence suite sweeps; subtests are
// named spin-<replica> after the barrier and replica shape they run.
// Requesting sparse explicitly (rather than auto) makes a silent fallback to
// full replicas a test failure, pinning every example topology as
// sparse-eligible.
var eqModes = []Replica{ReplicaFull, ReplicaSparse}

// TestShardedEquivalence is the crown jewel: for every shipped example
// topology, both replica shapes, and every shard count, the sharded run's
// telemetry bundle (connection instruments, engine counters, fabric
// counters, fleet metrics — the full JSONL and CSV exports), flow results,
// and fabric counters must be byte-identical to the 1-shard run; the window
// count must also agree across replica shapes at the same shard count,
// since the window grid depends on the spec alone.
func TestShardedEquivalence(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(examplesDir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example topologies found: %v", err)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			spec := loadSpec(t, filepath.Base(file))
			base := runShards(t, spec, 1)
			baseJSONL := base.Bundle.ExportJSONL()
			baseCSV := base.Bundle.ExportCSV()
			baseSum := sha256.Sum256(baseJSONL)
			maxShards := 4
			if n := len(spec.Hosts) + len(spec.Switches); n < maxShards {
				maxShards = n
			}
			for shards := 2; shards <= maxShards; shards *= 2 {
				windows := make(map[Replica]uint64, len(eqModes))
				for _, m := range eqModes {
					t.Run(fmt.Sprintf("shards=%d/spin-%s", shards, m), func(t *testing.T) {
						res := runMode(t, spec, shards, m)
						windows[m] = res.Windows
						if len(res.Plan.CutLinks) == 0 {
							t.Fatalf("partition into %d shards cut no links", shards)
						}
						if !reflect.DeepEqual(res.Flows, base.Flows) {
							t.Errorf("flow results diverged:\n 1 shard: %+v\n%d shards: %+v",
								base.Flows, shards, res.Flows)
						}
						if !reflect.DeepEqual(res.Fabric, base.Fabric) {
							t.Errorf("fabric counters diverged")
						}
						if res.Events != base.Events {
							t.Errorf("events: %d shards executed %d, 1 shard %d",
								shards, res.Events, base.Events)
						}
						if res.HighWater != base.HighWater {
							t.Errorf("high-water: %d shards %d, 1 shard %d",
								shards, res.HighWater, base.HighWater)
						}
						gotSum := sha256.Sum256(res.Bundle.ExportJSONL())
						if gotSum != baseSum {
							t.Errorf("telemetry JSONL diverged (sha256 %x vs %x)", gotSum, baseSum)
						}
						if got := res.Bundle.ExportCSV(); string(got) != string(baseCSV) {
							t.Errorf("telemetry CSV diverged")
						}
					})
				}
				for m, w := range windows {
					if ref := windows[eqModes[0]]; w != ref {
						t.Errorf("shards=%d: %v replicas ran %d windows, %v ran %d",
							shards, m, w, eqModes[0], ref)
					}
				}
			}
		})
	}
}

// TestSparseCompileFootprint: the point of sparse replicas is that a shard
// only pays for the slice it owns plus its one-hop boundary — per-shard
// compile allocation is the footprint that scales with the fleet, while the
// single reference compile is transient (dropped for GC after New). For
// every shard of a 4-way torus-grid partition, compiling the shard's subset
// must allocate strictly less than compiling the full replica, even though
// torus traffic makes the node subsets nearly full: the skipped irrelevant
// flows (connection state, socket buffers) are the durable saving.
func TestSparseCompileFootprint(t *testing.T) {
	spec := loadSpec(t, "torus-grid.json")
	r, err := New(spec, Options{Shards: 4, Seed: 42, replica: ReplicaSparse})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := r.Replica(); got != ReplicaSparse {
		t.Fatalf("runner picked %v replicas (fallback: %v)", got, r.SparseFallback())
	}
	compileAlloc := func(compile func(*sim.Engine) error) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		eng := sim.NewEngine(42)
		if err := compile(eng); err != nil {
			t.Fatalf("compile: %v", err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(eng)
		return after.TotalAlloc - before.TotalAlloc
	}
	for sh := 0; sh < r.plan.Shards; sh++ {
		full := compileAlloc(func(eng *sim.Engine) error {
			_, err := topo.Compile(eng, spec, 42)
			return err
		})
		sparse := compileAlloc(func(eng *sim.Engine) error {
			_, err := topo.CompileSubset(eng, spec, 42, r.subs[sh])
			return err
		})
		if sparse >= full {
			t.Errorf("shard %d: sparse compile allocated %d bytes, full %d: sparse must cost less",
				sh, sparse, full)
		}
		t.Logf("shard %d: full %d bytes, sparse %d bytes (%.1f%% of full)",
			sh, full, sparse, 100*float64(sparse)/float64(full))
	}
}

// TestSingleShardMatchesRunFlows pins the 1-shard parallel run to the plain
// sequential path: identical flow results (the window-quantized stop only
// runs extra tail events after the last completion, which cannot change
// flow outcomes).
func TestSingleShardMatchesRunFlows(t *testing.T) {
	for _, name := range []string{"paper-baseline.json", "beowulf-star.json"} {
		t.Run(name, func(t *testing.T) {
			spec := loadSpec(t, name)
			eng := sim.NewEngine(42)
			net, err := topo.Compile(eng, spec, 42)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := net.RunFlows(10 * units.Minute)
			if err != nil {
				t.Fatal(err)
			}
			par := runShards(t, spec, 1)
			if !reflect.DeepEqual(par.Flows, seq) {
				t.Errorf("1-shard pdes diverged from RunFlows:\nseq: %+v\npar: %+v", seq, par.Flows)
			}
		})
	}
}

// compileHorizon reports the simulated time at which spec's compile-time
// handshakes end, so tests can place fault steps strictly after it (the
// sparse-eligibility requirement).
func compileHorizon(t *testing.T, spec *topo.Spec) units.Time {
	t.Helper()
	eng := sim.NewEngine(42)
	if _, err := topo.Compile(eng, spec, 42); err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	return eng.Now()
}

// chaosOverlay installs a deterministic chaos schedule — a Gilbert-Elliott
// loss burst, independent loss with duplication, and reordering with
// corruption, each healed a few milliseconds later — on the first two links
// of spec, with every step after horizon h so the spec stays
// sparse-eligible. reorder scales the reorder deferral to the topology's
// propagation delays.
func chaosOverlay(t *testing.T, spec *topo.Spec, h, reorder units.Time) {
	t.Helper()
	if len(spec.Links) < 2 {
		t.Fatalf("%s: need >=2 links for a chaos overlay", spec.Name)
	}
	ms := units.Millisecond
	spec.Links[0].Faults = &topo.LinkFaults{
		AtoB: netem.Script{
			{At: h + 1*ms, Fault: netem.Fault{GE: netem.GEConfig{
				Enabled: true, PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.25}}},
			{At: h + 6*ms}, // heal
		},
		BtoA: netem.Script{
			{At: h + 2*ms, Fault: netem.Fault{LossProb: 0.02, DupProb: 0.02}},
			{At: h + 8*ms}, // heal
		},
	}
	spec.Links[1].Faults = &topo.LinkFaults{
		AtoB: netem.Script{
			{At: h + 3*ms, Fault: netem.Fault{
				ReorderProb: 0.1, ReorderDelay: reorder, CorruptProb: 0.01}},
			{At: h + 9*ms}, // heal
		},
	}
}

// TestFaultedShardedEquivalence extends the crown jewel to chaos: a
// fault-scripted topology (scripts on two links, all fault classes) must
// produce byte-identical flow results, fabric counters, and telemetry at
// every shard count, under both replica shapes. This is
// what per-link rng streams (netem.StreamSeed) plus lazy script application
// buy: fault draws are a pure function of (seed, link, direction, packet
// order), none of which depend on how the simulation is sharded.
func TestFaultedShardedEquivalence(t *testing.T) {
	cases := []struct {
		file    string
		reorder units.Time
	}{
		{"torus-grid.json", 200 * units.Microsecond},  // ms-scale trunks, wide windows
		{"beowulf-star.json", 50 * units.Microsecond}, // LAN star, short lookahead
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			clean := runShards(t, loadSpec(t, tc.file), 1)
			spec := loadSpec(t, tc.file)
			chaosOverlay(t, spec, compileHorizon(t, spec), tc.reorder)
			base := runShards(t, spec, 1)
			if reflect.DeepEqual(base.Flows, clean.Flows) {
				t.Fatal("chaos overlay left flow results untouched — fault steps missed the run window")
			}
			baseSum := sha256.Sum256(base.Bundle.ExportJSONL())
			baseCSV := base.Bundle.ExportCSV()
			for shards := 2; shards <= 4; shards *= 2 {
				for _, m := range eqModes {
					t.Run(fmt.Sprintf("shards=%d/spin-%s", shards, m), func(t *testing.T) {
						res := runMode(t, spec, shards, m)
						if !reflect.DeepEqual(res.Flows, base.Flows) {
							t.Errorf("flow results diverged:\n 1 shard: %+v\n%d shards: %+v",
								base.Flows, shards, res.Flows)
						}
						if !reflect.DeepEqual(res.Fabric, base.Fabric) {
							t.Errorf("fabric counters diverged")
						}
						if res.Events != base.Events {
							t.Errorf("events: %d shards executed %d, 1 shard %d",
								shards, res.Events, base.Events)
						}
						if res.HighWater != base.HighWater {
							t.Errorf("high-water: %d shards %d, 1 shard %d",
								shards, res.HighWater, base.HighWater)
						}
						if gotSum := sha256.Sum256(res.Bundle.ExportJSONL()); gotSum != baseSum {
							t.Errorf("telemetry JSONL diverged (sha256 %x vs %x)", gotSum, baseSum)
						}
						if got := res.Bundle.ExportCSV(); string(got) != string(baseCSV) {
							t.Errorf("telemetry CSV diverged")
						}
					})
				}
			}
		})
	}
}

// TestChaosSoakUnderShards: seeded random fault schedules (the chaos
// harness's fault classes, minus carrier flaps whose RTO stalls would blow
// up the window count) over a multi-switch topology must stay shard-count
// exact. Each seed scripts a random set of link directions and compares
// shards {2, 4} against the single-shard run.
func TestChaosSoakUnderShards(t *testing.T) {
	randFault := func(rng *rand.Rand) netem.Fault {
		switch rng.Intn(4) {
		case 0:
			return netem.Fault{LossProb: 0.01 + 0.04*rng.Float64()}
		case 1:
			return netem.Fault{GE: netem.GEConfig{
				Enabled:  true,
				PGoodBad: 0.02 + 0.1*rng.Float64(),
				PBadGood: 0.2 + 0.3*rng.Float64(),
				LossBad:  0.1 + 0.3*rng.Float64(),
			}}
		case 2:
			return netem.Fault{DupProb: 0.02, CorruptProb: 0.005}
		default:
			return netem.Fault{ReorderProb: 0.05 + 0.1*rng.Float64(),
				ReorderDelay: 100 * units.Microsecond}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := loadSpec(t, "fattree-pod.json")
			h := compileHorizon(t, spec)
			rng := rand.New(rand.NewSource(seed))
			gen := func() netem.Script {
				var s netem.Script
				at := h + units.Time(1+rng.Intn(4))*units.Millisecond
				for j := 0; j <= rng.Intn(2); j++ {
					s = append(s, netem.Step{At: at, Fault: randFault(rng)})
					at += units.Time(1+rng.Intn(3)) * units.Millisecond
				}
				return append(s, netem.Step{At: at}) // heal
			}
			perm := rng.Perm(len(spec.Links))
			for _, li := range perm[:2+rng.Intn(3)] {
				lf := &topo.LinkFaults{}
				if rng.Intn(2) == 0 {
					lf.AtoB = gen()
				}
				if rng.Intn(2) == 0 || len(lf.AtoB) == 0 {
					lf.BtoA = gen()
				}
				spec.Links[li].Faults = lf
			}
			base := runShards(t, spec, 1)
			baseSum := sha256.Sum256(base.Bundle.ExportJSONL())
			for _, shards := range []int{2, 4} {
				res := runShards(t, spec, shards)
				if !reflect.DeepEqual(res.Flows, base.Flows) {
					t.Errorf("shards=%d: flow results diverged", shards)
				}
				if !reflect.DeepEqual(res.Fabric, base.Fabric) {
					t.Errorf("shards=%d: fabric counters diverged", shards)
				}
				if gotSum := sha256.Sum256(res.Bundle.ExportJSONL()); gotSum != baseSum {
					t.Errorf("shards=%d: telemetry diverged", shards)
				}
			}
		})
	}
}

// TestFaultInsideCompileHorizon: a fault step due while compile-time
// handshakes run could impair them and consume rng draws a sparse subset's
// skipped handshakes never make, so sparse replicas must refuse it — and New
// must fall back to full replicas, which replay the whole compile on every
// shard and therefore stay exact.
func TestFaultInsideCompileHorizon(t *testing.T) {
	faulted := func() *topo.Spec {
		spec := loadSpec(t, "beowulf-star.json")
		spec.Links[0].Faults = &topo.LinkFaults{AtoB: netem.Script{
			{At: units.Microsecond, Fault: netem.Fault{DupProb: 0.01}},
			{At: 5 * units.Millisecond, Fault: netem.Fault{LossProb: 0.01}},
			{At: 9 * units.Millisecond},
		}}
		return spec
	}
	if _, err := New(faulted(), Options{Shards: 2, Seed: 42, replica: ReplicaSparse}); err == nil {
		t.Fatal("sparse replicas accepted a fault step inside the compile horizon")
	}
	r, err := New(faulted(), Options{Shards: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r.Replica() != ReplicaFull || r.SparseFallback() == nil {
		t.Fatalf("New picked %v replicas (fallback: %v); want full with a recorded reason",
			r.Replica(), r.SparseFallback())
	}
	base := runMode(t, faulted(), 1, ReplicaFull)
	res := runMode(t, faulted(), 2, ReplicaFull)
	if !reflect.DeepEqual(res.Flows, base.Flows) {
		t.Error("full replicas diverged under an in-horizon fault script")
	}
}

// TestTimeoutReturnsTypedError: a run that cannot finish in time reports the
// typed incomplete-flows error naming each unfinished flow. The subtest is
// named for the spin barrier, whose terminal-action unwind path it exercises.
func TestTimeoutReturnsTypedError(t *testing.T) {
	t.Run("spin", func(t *testing.T) {
		spec := loadSpec(t, "paper-baseline.json")
		r, err := New(spec, Options{Shards: 2, Seed: 42, Timeout: units.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Run()
		var inc *topo.IncompleteFlowsError
		if !errors.As(err, &inc) {
			t.Fatalf("want IncompleteFlowsError, got %v", err)
		}
		if len(inc.Incomplete) == 0 {
			t.Fatal("typed error names no flows")
		}
		for _, f := range inc.Incomplete {
			if f.Flow == "" || f.Total == 0 {
				t.Errorf("underspecified incomplete flow: %+v", f)
			}
		}
	})
}

// TestRunnerReuse: a Runner's engines are reset between runs, so repeated
// runs produce identical results (the property the benchmark loop relies on).
func TestRunnerReuse(t *testing.T) {
	spec := loadSpec(t, "paper-baseline.json")
	r, err := New(spec, Options{Shards: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Flows, second.Flows) {
		t.Error("rerun on reset engines diverged")
	}
	if first.Events != second.Events {
		t.Errorf("rerun executed %d events, first run %d", second.Events, first.Events)
	}
}

// TestShardPanicMidWindow: a shard that panics inside a window must fail the
// run with a PanicError naming it, leave no shard goroutine behind, and
// leave the Runner reusable. The panic is a real one: a lookahead stretched
// far past the minimum propagation delay lets a packet arrive inside the
// window that sent it, so the receiving shard's next-window injection trips
// the engine's causality guard. On the one-flow baseline the first crossing
// goes from the sender's shard to the other one, so that shard panics alone.
func TestShardPanicMidWindow(t *testing.T) {
	spec := loadSpec(t, "paper-baseline.json")
	opts := Options{Shards: 2, Seed: 42}
	r, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - r.plan.Owner[spec.Flows[0].Src]
	lookahead := r.plan.Lookahead
	r.plan.Lookahead = 1000 * lookahead
	before := runtime.NumGoroutine()
	_, err = r.Run()
	var pe *runner.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want a PanicError, got %v", err)
	}
	if pe.Index != want || !strings.Contains(pe.Label, fmt.Sprintf("shard %d/2", want)) {
		t.Errorf("panic attributed to index %d (%q), want shard %d", pe.Index, pe.Label, want)
	}
	if !strings.Contains(fmt.Sprint(pe.Value), "lookahead violated") {
		t.Errorf("unexpected panic value %v", pe.Value)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}

	r.plan.Lookahead = lookahead
	again, err := r.Run()
	if err != nil {
		t.Fatalf("rerun after the panic: %v", err)
	}
	fr, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := fr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Flows, fresh.Flows) || again.Events != fresh.Events {
		t.Error("rerun after the panic diverged from a fresh runner")
	}
}
