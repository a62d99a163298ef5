package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tengig/internal/units"
)

// JSONL schema version. Bump when a record shape changes.
const SchemaVersion = "tengig-telemetry/v1"

// The JSONL export is line-oriented: one self-describing JSON object per
// line, in a deterministic order — meta, then per connection (registration
// order) a conn header followed by its samples and events in time order,
// then the engine counters. Host wall time never appears: the export must
// be byte-identical for identical seeds, serial or parallel.

type metaLine struct {
	Type   string `json:"type"` // "meta"
	Schema string `json:"schema"`
	Name   string `json:"name"`
	Seed   int64  `json:"seed"`
}

type connLine struct {
	Type           string `json:"type"` // "conn"
	Conn           string `json:"conn"`
	Samples        int    `json:"samples"`
	Events         int    `json:"events"`
	DroppedSamples int64  `json:"dropped_samples"`
	DroppedEvents  int64  `json:"dropped_events"`
}

type sampleLine struct {
	Type string `json:"type"` // "sample"
	Conn string `json:"conn"`
	Sample
}

type eventLine struct {
	Type string `json:"type"` // "event"
	Conn string `json:"conn"`
	Kind string `json:"kind"`
	Event
}

type engineLine struct {
	Type string `json:"type"` // "engine"
	EngineCounters
}

type fabricLine struct {
	Type string `json:"type"` // "fabric"
	FabricCounters
}

type metricsLine struct {
	Type string `json:"type"` // "metrics"
	FleetMetrics
}

// Sample and event lines, nearly every byte of a long run's export, are
// rendered without reflection by appendSample and appendEvent into one
// reused line buffer. The strings in them are still encoded by
// encoding/json, each once per connection, state run or event kind, so
// escaping is json's own. FuzzJSONLRecord pins both line types to
// json.Marshal byte for byte.
const (
	exportBufSize = 64 << 10
	lineBufSize   = 512
)

// WriteJSONL writes the bundle as JSON lines.
func (b *Bundle) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, exportBufSize)
	enc := func(v any) error {
		j, err := json.Marshal(v)
		if err != nil {
			return err
		}
		bw.Write(j)
		return bw.WriteByte('\n')
	}
	if err := enc(metaLine{Type: "meta", Schema: SchemaVersion, Name: b.Name, Seed: b.Seed}); err != nil {
		return err
	}
	line := make([]byte, 0, lineBufSize)
	var state string
	var stateJSON []byte
	for _, r := range b.Conns {
		ds, de := r.Dropped()
		samples, events := r.Samples(), r.Events()
		if err := enc(connLine{Type: "conn", Conn: r.Name(),
			Samples: len(samples), Events: len(events),
			DroppedSamples: ds, DroppedEvents: de}); err != nil {
			return err
		}
		conn, err := json.Marshal(r.Name())
		if err != nil {
			return err
		}
		for i := range samples {
			s := &samples[i]
			if stateJSON == nil || s.State != state {
				if stateJSON, err = json.Marshal(s.State); err != nil {
					return err
				}
				state = s.State
			}
			line = appendSample(line[:0], conn, stateJSON, s)
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
		for i := range events {
			line = appendEvent(line[:0], conn, &events[i])
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	if err := enc(engineLine{Type: "engine", EngineCounters: b.Engine}); err != nil {
		return err
	}
	// Fabric counters follow the engine footer so switchless bundles — the
	// pinned golden exports among them — are byte-identical to before the
	// record type existed.
	for _, fc := range b.Fabric {
		if err := enc(fabricLine{Type: "fabric", FabricCounters: fc}); err != nil {
			return err
		}
	}
	// The fleet-metrics line comes last, after the engine footer and fabric
	// counters, for the same reason: bundles without a metrics sink — every
	// pinned golden digest among them — export byte-identically to before
	// the record type existed.
	if b.Metrics != nil {
		if err := enc(metricsLine{Type: "metrics", FleetMetrics: *b.Metrics}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteCSV writes the sampled instrument series as one CSV table (all
// connections, in registration order), deterministic like the JSONL.
func (b *Bundle) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "conn,at_ps,state,cwnd,ssthresh,srtt_ps,rttvar_ps,rto_ps,"+
		"snd_una,snd_nxt,inflight,peer_wnd,adv_wnd,persist_shift,"+
		"retrans,fast_retrans,timeouts,dup_acks")
	for _, r := range b.Conns {
		for _, s := range r.Samples() {
			fmt.Fprintf(bw, "%s,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				r.Name(), int64(s.At), s.State, s.Cwnd, s.Ssthresh,
				int64(s.SRTT), int64(s.RTTVar), int64(s.RTO),
				s.SndUna, s.SndNxt, s.InFlight, s.PeerWnd, s.AdvWnd,
				s.PersistShift, s.Retransmits, s.FastRetrans, s.Timeouts, s.DupAcksIn)
		}
	}
	return bw.Flush()
}

// appendSample appends s's "sample" line, newline included, exactly as
// json.Marshal(sampleLine{...}) renders it: Sample's fields in declaration
// order. conn and state are the connection name and s.State already
// encoded as JSON strings.
func appendSample(dst, conn, state []byte, s *Sample) []byte {
	dst = append(dst, `{"type":"sample","conn":`...)
	dst = append(dst, conn...)
	dst = appendField(dst, `,"at_ps":`, int64(s.At))
	dst = append(dst, `,"state":`...)
	dst = append(dst, state...)
	dst = appendField(dst, `,"cwnd":`, int64(s.Cwnd))
	dst = appendField(dst, `,"ssthresh":`, int64(s.Ssthresh))
	dst = appendField(dst, `,"srtt_ps":`, int64(s.SRTT))
	dst = appendField(dst, `,"rttvar_ps":`, int64(s.RTTVar))
	dst = appendField(dst, `,"rto_ps":`, int64(s.RTO))
	dst = appendField(dst, `,"snd_una":`, s.SndUna)
	dst = appendField(dst, `,"snd_nxt":`, s.SndNxt)
	dst = appendField(dst, `,"inflight":`, s.InFlight)
	dst = appendField(dst, `,"peer_wnd":`, s.PeerWnd)
	dst = appendField(dst, `,"adv_wnd":`, s.AdvWnd)
	dst = appendField(dst, `,"persist_shift":`, int64(s.PersistShift))
	dst = appendField(dst, `,"retrans":`, s.Retransmits)
	dst = appendField(dst, `,"fast_retrans":`, s.FastRetrans)
	dst = appendField(dst, `,"timeouts":`, s.Timeouts)
	dst = appendField(dst, `,"dup_acks":`, s.DupAcksIn)
	return append(dst, "}\n"...)
}

// kindJSON holds every event kind's export name as a JSON string, with
// "unknown" for out-of-range kinds in the last slot.
var kindJSON = func() (t [numEventKinds + 1][]byte) {
	for k := range t {
		t[k], _ = json.Marshal(EventKind(k).String())
	}
	return t
}()

// appendEvent appends ev's "event" line, newline included, exactly as
// json.Marshal(eventLine{...}) renders it. conn is the connection name
// already encoded as a JSON string.
func appendEvent(dst, conn []byte, ev *Event) []byte {
	dst = append(dst, `{"type":"event","conn":`...)
	dst = append(dst, conn...)
	dst = append(dst, `,"kind":`...)
	dst = append(dst, kindJSON[min(ev.Kind, numEventKinds)]...)
	dst = appendField(dst, `,"at_ps":`, int64(ev.At))
	dst = appendField(dst, `,"seq":`, ev.Seq)
	dst = appendField(dst, `,"cwnd":`, int64(ev.Cwnd))
	dst = appendField(dst, `,"ssthresh":`, int64(ev.Ssthresh))
	dst = appendField(dst, `,"aux":`, ev.Aux)
	return append(dst, "}\n"...)
}

func appendField(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// ExportJSONL renders the JSONL export to bytes (determinism checks).
func (b *Bundle) ExportJSONL() []byte {
	var buf bytes.Buffer
	if err := b.WriteJSONL(&buf); err != nil {
		panic("telemetry: in-memory export failed: " + err.Error())
	}
	return buf.Bytes()
}

// ExportCSV renders the CSV export to bytes.
func (b *Bundle) ExportCSV() []byte {
	var buf bytes.Buffer
	if err := b.WriteCSV(&buf); err != nil {
		panic("telemetry: in-memory export failed: " + err.Error())
	}
	return buf.Bytes()
}

// ParseJSONL reconstructs a bundle from its JSONL export — the read half of
// the machine-readable contract, used by tests and downstream tooling.
// Record types this reader does not know are skipped (and counted in
// Bundle.UnknownLines) rather than rejected, so older tooling keeps parsing
// exports that grew new line types.
func ParseJSONL(data []byte) (*Bundle, error) {
	b := &Bundle{opt: Options{MaxSamples: 1 << 30, MaxEvents: 1 << 30}}
	for ln, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		// Fresh per line: a line without a type must not inherit the
		// previous line's.
		var typ struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &typ); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", ln+1, err)
		}
		switch typ.Type {
		case "meta":
			var m metaLine
			if err := json.Unmarshal(line, &m); err != nil {
				return nil, err
			}
			if m.Schema != SchemaVersion {
				return nil, fmt.Errorf("telemetry: schema %q, want %q", m.Schema, SchemaVersion)
			}
			b.Name, b.Seed = m.Name, m.Seed
		case "conn":
			var c connLine
			if err := json.Unmarshal(line, &c); err != nil {
				return nil, err
			}
			r := b.Conn(c.Conn)
			r.droppedSamples, r.droppedEvents = c.DroppedSamples, c.DroppedEvents
		case "sample":
			var s sampleLine
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, err
			}
			b.Conn(s.Conn).RecordSample(s.Sample)
		case "event":
			var e eventLine
			if err := json.Unmarshal(line, &e); err != nil {
				return nil, err
			}
			e.Event.Kind = KindFromString(e.Kind)
			r := b.Conn(e.Conn)
			r.kindCounts[e.Event.Kind]++
			if len(r.events) < r.maxEvents {
				r.events = append(r.events, e.Event)
			}
		case "engine":
			var g engineLine
			if err := json.Unmarshal(line, &g); err != nil {
				return nil, err
			}
			b.Engine = g.EngineCounters
		case "fabric":
			var f fabricLine
			if err := json.Unmarshal(line, &f); err != nil {
				return nil, err
			}
			b.Fabric = append(b.Fabric, f.FabricCounters)
		case "metrics":
			var m metricsLine
			if err := json.Unmarshal(line, &m); err != nil {
				return nil, err
			}
			fm := m.FleetMetrics
			b.Metrics = &fm
		default:
			// Unknown record types are tolerated (counted, not fatal): a
			// reader built before a line type existed must still parse the
			// rest of the export, the same forward-compatibility contract
			// the fabric and metrics lines rely on.
			b.UnknownLines++
		}
	}
	return b, nil
}

// Summary renders the human-readable readout, like `web100 readvars` or a
// tcp_probe post-processing script.
func (b *Bundle) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "telemetry: bundle %s (seed %d)\n", b.Name, b.Seed)
	for _, r := range b.Conns {
		ds, de := r.Dropped()
		samples := r.Samples()
		fmt.Fprintf(&sb, "  conn %-16s %d samples, %d events retained (dropped %d/%d)\n",
			r.Name(), len(samples), len(r.Events()), ds, de)
		if len(samples) > 0 {
			last := samples[len(samples)-1]
			cw := r.cwndAgg
			fmt.Fprintf(&sb, "    cwnd      min %.0f max %.0f mean %.1f (last %d), ssthresh last %d\n",
				cw.Min(), cw.Max(), cw.Mean(), last.Cwnd, last.Ssthresh)
			fmt.Fprintf(&sb, "    srtt      last %v   rto last %v\n", last.SRTT, last.RTO)
			fmt.Fprintf(&sb, "    inflight  max %.0f B   adv-wnd last %d B\n",
				r.inflightAgg.Max(), last.AdvWnd)
			fmt.Fprintf(&sb, "    counters  retrans %d  fast-retrans %d  timeouts %d  dup-acks %d\n",
				last.Retransmits, last.FastRetrans, last.Timeouts, last.DupAcksIn)
		}
		var evs []string
		for k := EventKind(1); k < numEventKinds; k++ {
			if n := r.KindCount(k); n > 0 {
				evs = append(evs, fmt.Sprintf("%s×%d", k, n))
			}
		}
		if len(evs) > 0 {
			fmt.Fprintf(&sb, "    events    %s\n", strings.Join(evs, "  "))
		}
	}
	for _, fc := range b.Fabric {
		fmt.Fprintf(&sb, "  fabric %-16s forwarded %d  dropped %d  no-route %d  ttl-drops %d\n",
			fc.Node, fc.Forwarded, fc.Dropped, fc.NoRoute, fc.TTLDrops)
		for _, ps := range fc.Ports {
			fmt.Fprintf(&sb, "    port %-24s fwd %d (%d B)  drops %d  max-queued %d B\n",
				ps.Link, ps.Forwarded, ps.Bytes, ps.Drops, ps.MaxQueued)
		}
	}
	if m := b.Metrics; m != nil {
		fmt.Fprintf(&sb, "  fleet: %d flows, %d B, retrans %d, fairness %.4f\n",
			m.Flows, m.Bytes, m.Retransmits, m.Fairness)
		fmt.Fprintf(&sb, "    fct   p50 %v  p90 %v  p99 %v  p999 %v  max %v\n",
			units.Time(m.FCTP50), units.Time(m.FCTP90), units.Time(m.FCTP99),
			units.Time(m.FCTP999), units.Time(m.FCTMax))
		for _, c := range m.Classes {
			fmt.Fprintf(&sb, "    class %-12s %d flows  %d B  %.3f Gb/s\n",
				c.Class, c.Flows, c.Bytes, c.GoodputGbps)
		}
		if m.Fabric.Nodes > 0 {
			fmt.Fprintf(&sb, "    fabric %d nodes: fwd %d  drops %d (port %d)  max-queued %d B on %s\n",
				m.Fabric.Nodes, m.Fabric.Forwarded, m.Fabric.Dropped,
				m.Fabric.PortDrops, m.Fabric.MaxQueued, m.Fabric.MaxQueuedLink)
		}
	}
	fmt.Fprintf(&sb, "  engine: %d events executed, queue high-water %d\n",
		b.Engine.Events, b.Engine.HighWater)
	if b.Wall > 0 {
		fmt.Fprintf(&sb, "  wall: %v\n", b.Wall)
	}
	return sb.String()
}

// FirstEvent returns the earliest retained event of kind, or nil.
func (r *ConnRecorder) FirstEvent(k EventKind) *Event {
	evs := r.Events()
	for i := range evs {
		if evs[i].Kind == k {
			return &evs[i]
		}
	}
	return nil
}

// SamplesBetween returns the samples with from <= At < to.
func (r *ConnRecorder) SamplesBetween(from, to units.Time) []Sample {
	var out []Sample
	for _, s := range r.Samples() {
		if s.At >= from && s.At < to {
			out = append(out, s)
		}
	}
	return out
}
