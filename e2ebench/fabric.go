package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"tengig/internal/pdes"
	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// fabricTimeout is the simulated-time bound `sweep -topology` gives
// RunFlows and pdes.Options defaults to.
const fabricTimeout = 10 * units.Minute

// fabricOutput is what a fabric run reports to a user: per-flow results,
// per-switch counters and the telemetry bundle export.
type fabricOutput struct {
	flows  []topo.FlowResult
	fabric []telemetry.FabricCounters
	jsonl  []byte
}

// digests returns the digest of every output, and the digest of the flow
// results alone. DESIGN.md §10 ("Exactness boundary") documents that a
// sharded run finishes the barrier window holding the last flow completion,
// so against the sequential path only the flow results are exact: engine,
// fabric and metrics counters, and telemetry samples taken in that last
// window, can include a few events past the sequential run's stop point.
func (f *fabricOutput) digests() (full, flows [32]byte, err error) {
	fl, err := json.Marshal(f.flows)
	if err != nil {
		return full, flows, err
	}
	fab, err := json.Marshal(f.fabric)
	if err != nil {
		return full, flows, err
	}
	h := sha256.New()
	h.Write(fl)
	h.Write(fab)
	h.Write(f.jsonl)
	copy(full[:], h.Sum(nil))
	return full, sha256.Sum256(fl), nil
}

// outcome turns a fabric run's outputs into an outcome.
func (f *fabricOutput) outcome() *outcome {
	o := &outcome{digests: f.digests}
	for _, fr := range f.flows {
		o.simBits += 8 * float64(fr.Bytes)
	}
	return o
}

// fabricMesh is the fabric-mesh workload: the seed's generated torus spec
// run sequentially, as `sweep -topology F -telemetry DIR -metrics` does.
type fabricMesh struct {
	seed int64
	spec []byte // the generated topology document
}

func newFabricMesh(seed int64) (*fabricMesh, error) {
	data, err := genFabricJSON(seed)
	return &fabricMesh{seed: seed, spec: data}, err
}

func (w *fabricMesh) items() int { return fabricFlows }

func (w *fabricMesh) setup() (time.Duration, error) {
	start := time.Now()
	spec, err := topo.Parse(w.spec)
	if err != nil {
		return 0, err
	}
	if _, err := topo.Compile(sim.NewEngine(w.seed), spec, w.seed); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func (w *fabricMesh) run(tr *tracer) (*outcome, error) {
	tr.begin("topo.parse")
	spec, err := topo.Parse(w.spec)
	tr.end()
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(w.seed)
	tr.begin("topo.compile")
	net, err := topo.Compile(eng, spec, w.seed)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("telemetry.attach")
	b := net.AttachTelemetry(spec.Name, w.seed, telemetry.Options{Enabled: true})
	tr.end()
	tr.begin("sim.run")
	e0 := eng.Executed
	flows, err := net.RunFlows(fabricTimeout)
	runEvents := eng.Executed - e0
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("telemetry.collect")
	b.CaptureEngine(eng.Executed, eng.HighWater)
	net.CaptureFabric(b)
	b.CaptureMetrics(net.CollectMetrics(flows))
	tr.end()
	tr.begin("telemetry.export")
	var buf bytes.Buffer
	err = b.WriteJSONL(&buf)
	tr.end()
	if err != nil {
		return nil, err
	}
	out := &fabricOutput{flows: flows, fabric: net.FabricCounters(), jsonl: buf.Bytes()}
	o := out.outcome()
	if tr == nil {
		return o, nil
	}
	var m model
	m.addEngineOf(eng)
	for _, p := range net.Pairs {
		m.addConn(p.Src.Conn, p.Dst.Conn)
	}
	for _, h := range spec.Hosts {
		m.addHost(net.Host(h.Name), eng.Now())
	}
	for _, fc := range out.fabric {
		m.addFabric(fc)
	}
	impairs, _ := net.Impairs()
	for _, im := range impairs {
		m.addImpair(im)
	}
	o.layers = map[string]float64{
		"sim.ns_per_event":     ratio(float64(tr.total("sim.run").Nanoseconds()), float64(runEvents)),
		"topo.parse_ms":        ms(tr.total("topo.parse")),
		"topo.compile_ms":      ms(tr.total("topo.compile")),
		"telemetry.collect_ms": ms(tr.total("telemetry.collect")),
		"telemetry.export_ms":  ms(tr.total("telemetry.export")),
		"telemetry.export_mb":  float64(len(out.jsonl)) / 1e6,
	}
	m.metrics(o.layers)
	return o, nil
}

// ms is a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fabricShards is the shard count of the sharded workload: two, or one on a
// single-CPU host.
func fabricShards() int { return min(2, runtime.NumCPU()) }

// fabricSharded is the fabric-sharded workload: the same generated spec
// through the parallel-DES runner with the program's default barrier,
// replica mode and scheduler.
type fabricSharded struct {
	fabricMesh
	shards int
}

func newFabricSharded(seed int64) (*fabricSharded, error) {
	m, err := newFabricMesh(seed)
	if err != nil {
		return nil, err
	}
	return &fabricSharded{fabricMesh: *m, shards: fabricShards()}, nil
}

func (w *fabricSharded) options(shards int) pdes.Options {
	return pdes.Options{
		Shards: shards, Seed: w.seed,
		Telemetry: &telemetry.Options{Enabled: true}, Metrics: true,
	}
}

func (w *fabricSharded) setup() (time.Duration, error) {
	start := time.Now()
	spec, err := topo.Parse(w.spec)
	if err != nil {
		return 0, err
	}
	if _, err := pdes.New(spec, w.options(w.shards)); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// runShards parses the spec and runs it at the given shard count.
func (w *fabricSharded) runShards(shards int, tr *tracer) (*fabricOutput, *pdes.Result, error) {
	tr.begin("topo.parse")
	spec, err := topo.Parse(w.spec)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	tr.begin("pdes.new")
	r, err := pdes.New(spec, w.options(shards))
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	tr.begin("pdes.run")
	res, err := r.Run()
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	tr.begin("telemetry.export")
	var buf bytes.Buffer
	err = res.Bundle.WriteJSONL(&buf)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	return &fabricOutput{flows: res.Flows, fabric: res.Fabric, jsonl: buf.Bytes()}, res, nil
}

func (w *fabricSharded) run(tr *tracer) (*outcome, error) {
	out, res, err := w.runShards(w.shards, tr)
	if err != nil {
		return nil, err
	}
	o := out.outcome()
	if tr == nil {
		return o, nil
	}
	var m model
	m.addEngine(res.Events, res.HighWater)
	for _, fr := range res.Flows {
		m.retx += fr.Retransmits
	}
	for _, fc := range res.Fabric {
		m.addFabric(fc)
	}
	runWall := tr.total("pdes.run")
	o.layers = map[string]float64{
		"sim.ns_per_event":       ratio(float64(runWall.Nanoseconds()), float64(res.Events)),
		"topo.parse_ms":          ms(tr.total("topo.parse")),
		"pdes.new_ms":            ms(tr.total("pdes.new")),
		"pdes.windows":           float64(res.Windows),
		"pdes.events_per_window": ratio(float64(res.Events), float64(res.Windows)),
		"pdes.sync_share":        100 * ratio(float64(res.SyncWall), float64(res.Plan.Shards)*float64(runWall)),
		"telemetry.export_ms":    ms(tr.total("telemetry.export")),
		"telemetry.export_mb":    float64(len(out.jsonl)) / 1e6,
	}
	m.metrics(o.layers)
	return o, nil
}

// shardedOnly are the per-layer metrics the sharded run measures itself;
// the rest of its model statistics live inside the shards, so check copies
// them from the sequential reference run.
var shardedOnly = map[string]bool{
	"sim.events": true, "sim.queue_hw": true, "tcp.retransmits": true,
	"fabric.forwarded": true, "fabric.drops": true, "fabric.max_queue_kb": true,
}

// check compares a sharded outcome with the two runs it must equal: the
// sequential fabric-mesh run on flow results, and the one-shard parallel
// run (the documented byte-equality baseline) on every output. On a traced
// outcome it also fills in the model statistics only the sequential run can
// read, and records the documented tail: how many more events the sharded
// run executed than the sequential one.
func (w *fabricSharded) check(o *outcome) error {
	seq, err := timedRun(&w.fabricMesh, newTracer())
	if err == nil {
		err = seq.finish()
	}
	if err != nil {
		return fmt.Errorf("sequential reference: %w", err)
	}
	if o.coreDigest != seq.coreDigest {
		return fmt.Errorf("flow results differ from the sequential run (%x vs %x)",
			o.coreDigest[:8], seq.coreDigest[:8])
	}
	one, _, err := w.runShards(1, nil)
	if err != nil {
		return fmt.Errorf("one-shard reference: %w", err)
	}
	full, _, err := one.digests()
	if err != nil {
		return err
	}
	if o.digest != full {
		return fmt.Errorf("outputs differ from the one-shard run (%x vs %x)", o.digest[:8], full[:8])
	}
	if o.layers != nil {
		for _, k := range simulatedMetrics {
			if v, ok := seq.layers[k]; ok && !shardedOnly[k] {
				o.layers[k] = v
			}
		}
		o.layers["sim.events_per_seg"] = ratio(o.layers["sim.events"], o.layers["tcp.data_segs"])
		o.layers["pdes.tail_events"] = o.layers["sim.events"] - seq.layers["sim.events"]
	}
	return nil
}
