package main

import (
	"encoding/json"
	"io"
	"time"

	"tengig/internal/fabric"
	"tengig/internal/host"
	"tengig/internal/netem"
	"tengig/internal/sim"
	"tengig/internal/tcp"
	"tengig/internal/telemetry"
	"tengig/internal/units"
)

// span is one timed call from the benchmark into a layer's public API.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = top level
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory. A nil *tracer is the
// untraced run: every method is a no-op, so the workloads share one code
// path and tracing adds only what it records.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans of the spans not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(),
	})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNS = time.Since(t.t0).Nanoseconds()
}

// total sums the duration of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.EndNS - s.StartNS
		}
	}
	return time.Duration(d)
}

// count is the number of spans with the given name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// selfTimes is each span name's duration minus the part its child spans
// cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS)
		if s.Parent > 0 {
			out[t.spans[s.Parent-1].Name] -= time.Duration(s.EndNS - s.StartNS)
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// model accumulates the simulated statistics of every layer a run touched:
// the answer to the paper's "which resource saturated". These are model
// outputs, so a change that only speeds up the simulator leaves them
// identical.
type model struct {
	events     uint64
	queueHW    int
	dataSegs   int64
	acks       int64
	retx       int64
	timeouts   int64
	cpuUtil    float64
	qdiscDrops int64
	irqs       int64
	rxPkts     int64
	overruns   int64
	pciUtil    float64
	memUtil    float64
	wanDrops   int64
	forwarded  int64
	fabDrops   int64
	maxQueueB  int64
	netemSeen  int64
	netemDrops int64
}

// addEngine folds in one engine's totals.
func (m *model) addEngine(events uint64, highWater int) {
	m.events += events
	m.queueHW = max(m.queueHW, highWater)
}

// addEngineOf folds in an engine's counters.
func (m *model) addEngineOf(e *sim.Engine) { m.addEngine(e.Executed, e.HighWater) }

// addConn folds in one connection pair: data segments from the sender,
// acknowledgments from the receiver.
func (m *model) addConn(src, dst *tcp.Conn) {
	m.dataSegs += src.Stats.DataSegsOut
	m.acks += dst.Stats.AcksOut
	m.retx += src.Stats.Retransmits
	m.timeouts += src.Stats.Timeouts
}

// addHost folds in a host's CPUs, adapters, PCI buses and memory bus.
func (m *model) addHost(h *host.Host, now units.Time) {
	for i := 0; i < h.NumCPU(); i++ {
		if now > 0 {
			m.cpuUtil = max(m.cpuUtil, h.CPUBusy(i).Seconds()/now.Seconds())
		}
	}
	m.qdiscDrops += h.Stats.QdiscDrops
	for i := 0; i < h.NICs(); i++ {
		p := h.NIC(i)
		m.irqs += p.Adapter.Stats.Interrupts
		m.rxPkts += p.Adapter.Stats.RxPackets
		m.overruns += p.Adapter.Stats.RxOverruns
		m.pciUtil = max(m.pciUtil, p.Bus.Utilization())
	}
	m.memUtil = max(m.memUtil, h.Mem().BusUtilization())
}

// addNode folds in one forwarding node read directly.
func (m *model) addNode(n *fabric.Node) {
	fc := telemetry.FabricCounters{Forwarded: n.Stats.Forwarded, Dropped: n.Stats.Dropped}
	for _, ps := range n.PortStats() {
		fc.Ports = append(fc.Ports, telemetry.FabricPortCounters{MaxQueued: ps.MaxQueued})
	}
	m.addFabric(fc)
}

// addFabric folds in one switch's exported counters.
func (m *model) addFabric(fc telemetry.FabricCounters) {
	m.forwarded += fc.Forwarded
	m.fabDrops += fc.Dropped
	for _, ps := range fc.Ports {
		m.maxQueueB = max(m.maxQueueB, ps.MaxQueued)
	}
}

// addImpair folds in one netem stage.
func (m *model) addImpair(im *netem.Impair) {
	m.netemSeen += im.Seen()
	m.netemDrops += im.Dropped()
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics renders the model as per-layer metric values.
func (m *model) metrics(out map[string]float64) {
	out["sim.events"] = float64(m.events)
	out["sim.events_per_seg"] = ratio(float64(m.events), float64(m.dataSegs))
	out["sim.queue_hw"] = float64(m.queueHW)
	out["tcp.data_segs"] = float64(m.dataSegs)
	out["tcp.acks_per_seg"] = ratio(float64(m.acks), float64(m.dataSegs))
	out["tcp.retransmits"] = float64(m.retx)
	out["tcp.timeouts"] = float64(m.timeouts)
	out["host.cpu_util_max"] = 100 * m.cpuUtil
	out["host.qdisc_drops"] = float64(m.qdiscDrops)
	out["nic.irqs_per_pkt"] = ratio(float64(m.irqs), float64(m.rxPkts))
	out["nic.rx_overruns"] = float64(m.overruns)
	out["pci.util_max"] = 100 * m.pciUtil
	out["mem.bus_util_max"] = 100 * m.memUtil
	out["wan.bottleneck_drops"] = float64(m.wanDrops)
	out["fabric.forwarded"] = float64(m.forwarded)
	out["fabric.drops"] = float64(m.fabDrops)
	out["fabric.max_queue_kb"] = float64(m.maxQueueB) / 1024
	out["netem.seen"] = float64(m.netemSeen)
	out["netem.dropped"] = float64(m.netemDrops)
}

// simulatedMetrics are the per-layer metrics that are model outputs or
// event counts: deterministic for a seed, so every traced repetition must
// report them identically.
var simulatedMetrics = []string{
	"sim.events", "sim.events_per_seg", "sim.queue_hw",
	"tcp.data_segs", "tcp.acks_per_seg", "tcp.retransmits", "tcp.timeouts",
	"host.cpu_util_max", "host.qdisc_drops", "nic.irqs_per_pkt", "nic.rx_overruns",
	"pci.util_max", "mem.bus_util_max", "wan.bottleneck_drops",
	"fabric.forwarded", "fabric.drops", "fabric.max_queue_kb",
	"netem.seen", "netem.dropped", "pdes.windows", "pdes.events_per_window", "pdes.tail_events",
	"model.anchors", "model.paper_err_pct",
}
