package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"tengig/internal/core"
	"tengig/internal/topo"
)

func TestFabricGeneratorDeterministicAndValid(t *testing.T) {
	first, err := genFabricJSON(7)
	if err != nil {
		t.Fatal(err)
	}
	again, err := genFabricJSON(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("one seed generated two different specs")
	}
	other, err := genFabricJSON(8)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, other) {
		t.Fatal("two seeds generated the same spec")
	}
	for seed := int64(0); seed < 50; seed++ {
		s := genFabric(seed)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		data, err := genFabricJSON(seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := topo.Parse(data); err != nil {
			t.Fatalf("seed %d: the program rejects the generated document: %v", seed, err)
		}
		lossy := 0
		for _, l := range s.Links {
			if l.Faults != nil {
				lossy++
			}
		}
		if len(s.Switches) != gridSide*gridSide || len(s.Flows) != fabricFlows || lossy != lossyTrunks {
			t.Fatalf("seed %d: %d switches, %d flows, %d lossy links", seed, len(s.Switches), len(s.Flows), lossy)
		}
	}
}

func TestCampaignPayloadsDeterministic(t *testing.T) {
	a, b := campaignPayloads(3), campaignPayloads(3)
	if len(a) != len(core.DefaultPayloads())+campaignExtras {
		t.Fatalf("got %d payloads", len(a))
	}
	grid := map[int]bool{}
	for _, p := range core.DefaultPayloads() {
		grid[p] = true
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("payload %d: %d then %d", i, a[i], b[i])
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("payloads not sorted and distinct: %v", a)
		}
		if !grid[a[i]] && a[i]%128 != 0 {
			t.Fatalf("extra payload %d is off the 128-byte grid", a[i])
		}
	}
}

// fakeWorkload returns canned outcomes, so the checks can be shown to fire.
type fakeWorkload struct {
	outs []*outcome
	n    int
}

func (f *fakeWorkload) setup() (time.Duration, error) { return time.Millisecond, nil }

func (f *fakeWorkload) items() int { return 3 }

func (f *fakeWorkload) run(*tracer) (*outcome, error) {
	o := *f.outs[min(f.n, len(f.outs)-1)]
	f.n++
	return &o, nil
}

func goodOutcome() *outcome {
	return &outcome{
		simBits: 8e9, digest: [32]byte{1},
		points:  []time.Duration{time.Millisecond, 2 * time.Millisecond},
		anchors: []anchor{{Name: "a", Paper: 2, Sim: 2.1, Lo: 1.9, Hi: 2.2, HasTol: true}},
	}
}

func TestTallyAcceptsGoodRuns(t *testing.T) {
	b := &bench{name: "fake", w: &fakeWorkload{}}
	r := b.tally([]*outcome{goodOutcome(), goodOutcome()}, nil)
	if r.Failed != 0 || r.Attempted != 7 {
		t.Fatalf("failed %d of %d: %v", r.Failed, r.Attempted, r.Problems)
	}
	if math.Abs(r.PaperErrPct-5) > 1e-9 {
		t.Fatalf("paper_err_pct = %v, want 5", r.PaperErrPct)
	}
}

func TestTallyCatchesCorruptedResult(t *testing.T) {
	bad := goodOutcome()
	bad.digest[5] ^= 1
	b := &bench{name: "fake", w: &fakeWorkload{}}
	r := b.tally([]*outcome{goodOutcome(), bad}, nil)
	if r.Failed != 3 {
		t.Fatalf("a repetition with a different digest failed %d items, want 3", r.Failed)
	}
}

func TestTallyCatchesOffAnchor(t *testing.T) {
	off := goodOutcome()
	off.anchors[0].Sim = 2.5
	b := &bench{name: "fake", w: &fakeWorkload{}}
	if r := b.tally([]*outcome{off}, nil); r.Failed != 1 {
		t.Fatalf("an anchor outside its tolerance failed %d checks, want 1", r.Failed)
	}
	// An anchor without a pinned tolerance (a documented deviation) is
	// reported in paper_err_pct but does not fail the run.
	off.anchors[0].HasTol = false
	if r := b.tally([]*outcome{off}, nil); r.Failed != 0 {
		t.Fatalf("an ungated anchor failed the run: %v", r.Problems)
	}
}

// runFake runs the command line against a fake workload and returns its
// exit code and last output line.
func runFake(t *testing.T, outs ...*outcome) (int, result) {
	t.Helper()
	workloads["fake"] = func(int64) (workload, error) { return &fakeWorkload{outs: outs}, nil }
	defer delete(workloads, "fake")
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "fake", "--seed", "1", "--seconds", "1", "--trace", "0"}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return code, res
}

func TestCommandFailsOnCorruptedResult(t *testing.T) {
	code, res := runFake(t, goodOutcome())
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("good run: exit %d, %+v", code, res)
	}
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("metric %s missing", d.Name)
		}
	}
	bad := goodOutcome()
	bad.digest[0] ^= 0xff
	code, res = runFake(t, goodOutcome(), bad)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted repetition: exit %d, %+v", code, res)
	}
}

func TestShardedCheckCatchesCorruption(t *testing.T) {
	w, err := newFabricSharded(1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := timedRun(w, nil)
	if err == nil {
		err = o.finish()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(o); err != nil {
		t.Fatalf("clean sharded run: %v", err)
	}
	exact := *o
	exact.coreDigest[0] ^= 1
	if w.check(&exact) == nil {
		t.Fatal("a flow-result mismatch with the sequential run passed")
	}
	full := *o
	full.digest[0] ^= 1
	if w.check(&full) == nil {
		t.Fatal("an output mismatch with the one-shard run passed")
	}
}

func TestCPUSharesSumTo100(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	w, err := newFabricMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.run(nil); err != nil {
		t.Fatal(err)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range append(cpuLayers, "runtime", "other") {
		v, ok := shares["cpu."+l]
		if !ok || v < 0 {
			t.Fatalf("cpu.%s = %v (present %v)", l, v, ok)
		}
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Fatalf("cpu shares sum to %v, want 100", sum)
	}
	if shares["cpu.sim"] == 0 {
		t.Fatalf("a fabric run spent no profiled time in sim: %v", shares)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tengig/internal/sim.(*Engine).Step":              "sim",
		"tengig/internal/tcp.(*Conn).output.func1":        "tcp",
		"tengig/internal/simx.f":                          "other",
		"tengig/internal/core.BackToBackOn":               "other",
		"runtime.mallocgc":                                "runtime",
		"internal/runtime/atomic.(*Uint32).Load":          "runtime",
		"slices.SortFunc[go.shape.[]tengig/internal/x.T]": "other",
		"main.(*bench).reps":                              "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// simulatedOf runs a workload traced and returns its simulated per-layer
// counts.
func simulatedOf(t *testing.T, w workload) map[string]float64 {
	t.Helper()
	o, err := w.run(newTracer())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, k := range simulatedMetrics {
		out[k] = o.layers[k]
	}
	return out
}

func TestSimulatedCountsRepeat(t *testing.T) {
	mesh, err := newFabricMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	var ws = map[string]workload{"fabric-mesh": mesh}
	if !testing.Short() {
		ws["paper-campaign"] = newCampaign(3)
	}
	for name, w := range ws {
		a, b := simulatedOf(t, w), simulatedOf(t, w)
		for k, v := range a {
			if b[k] != v {
				t.Errorf("%s: %s = %v then %v", name, k, v, b[k])
			}
		}
		if a["sim.events"] == 0 || a["tcp.data_segs"] == 0 {
			t.Errorf("%s: no simulated work recorded: %v", name, a)
		}
	}
}

func TestTracedCampaignMatchesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper campaign twice")
	}
	c := newCampaign(5)
	var outs []*outcome
	for _, tr := range []*tracer{nil, newTracer()} {
		o, err := timedRun(c, tr)
		if err == nil {
			err = o.finish()
		}
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, o)
	}
	plain, traced := outs[0], outs[1]
	if plain.digest != traced.digest {
		t.Fatal("driving the points directly gave different results from SweepConfig.Run")
	}
	for _, a := range plain.anchors {
		if !a.ok() {
			t.Errorf("anchor %s = %.3f outside [%.2f, %.2f]", a.Name, a.Sim, a.Lo, a.Hi)
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		json, go_ []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.go_) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", c.name, len(c.json), len(c.go_))
		}
		for i := range c.json {
			if c.json[i] != c.go_[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", c.name, i, c.json[i], c.go_[i])
			}
		}
	}
}
