package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tengig/internal/units"
)

func sampleBundle() *Bundle {
	b := NewBundle("unit", 42, Options{})
	r := b.Conn("send/flow1")
	r.RecordSample(Sample{At: 100, State: "established", Cwnd: 2, Ssthresh: 1 << 20,
		SRTT: 25_000_000, RTO: 200_000_000_000, InFlight: 8948, AdvWnd: 17896})
	r.RecordSample(Sample{At: 200, State: "established", Cwnd: 4, Ssthresh: 1 << 20,
		SRTT: 26_000_000, RTO: 200_000_000_000, InFlight: 17896, AdvWnd: 17896})
	r.RecordEvent(150, EventFastRetransmit, 8948, 4, 7, 3)
	r2 := b.Conn("recv/flow1")
	r2.RecordSample(Sample{At: 100, State: "established", Cwnd: 2})
	r2.RecordEvent(180, EventDelayedAck, 17896, 2, 1<<20, 2)
	b.CaptureEngine(1234, 17)
	return b
}

func TestJSONLRoundTrip(t *testing.T) {
	b := sampleBundle()
	data := b.ExportJSONL()

	got, err := ParseJSONL(data)
	if err != nil {
		t.Fatalf("ParseJSONL: %v", err)
	}
	if got.Name != "unit" || got.Seed != 42 {
		t.Fatalf("meta mismatch: %q seed %d", got.Name, got.Seed)
	}
	if len(got.Conns) != 2 || got.Conns[0].Name() != "send/flow1" {
		t.Fatalf("conns mismatch: %d", len(got.Conns))
	}
	if got.Engine != (EngineCounters{Events: 1234, HighWater: 17}) {
		t.Fatalf("engine mismatch: %+v", got.Engine)
	}
	r := got.Lookup("send/flow1")
	if len(r.Samples()) != 2 || r.Samples()[1].Cwnd != 4 {
		t.Fatalf("samples mismatch: %+v", r.Samples())
	}
	evs := r.Events()
	if len(evs) != 1 || evs[0].Kind != EventFastRetransmit || evs[0].Aux != 3 {
		t.Fatalf("events mismatch: %+v", evs)
	}
	if r.KindCount(EventFastRetransmit) != 1 {
		t.Fatal("kind count not reconstructed")
	}

	// The round trip is lossless for export purposes: re-exporting the
	// parsed bundle reproduces the original bytes.
	if again := got.ExportJSONL(); !bytes.Equal(data, again) {
		t.Fatal("re-export after parse is not byte-identical")
	}
}

func TestExportDeterminism(t *testing.T) {
	a, b := sampleBundle(), sampleBundle()
	if !bytes.Equal(a.ExportJSONL(), b.ExportJSONL()) {
		t.Fatal("identical bundles exported different JSONL")
	}
	if !bytes.Equal(a.ExportCSV(), b.ExportCSV()) {
		t.Fatal("identical bundles exported different CSV")
	}
}

func TestWallExcludedFromExports(t *testing.T) {
	a, b := sampleBundle(), sampleBundle()
	b.Wall = 123_456_789 // wall-clock noise must never reach the exports
	if !bytes.Equal(a.ExportJSONL(), b.ExportJSONL()) {
		t.Fatal("Wall leaked into the JSONL export")
	}
	if !bytes.Equal(a.ExportCSV(), b.ExportCSV()) {
		t.Fatal("Wall leaked into the CSV export")
	}
}

func TestCSVShape(t *testing.T) {
	lines := strings.Split(strings.TrimSpace(string(sampleBundle().ExportCSV())), "\n")
	if len(lines) != 4 { // header + 3 samples
		t.Fatalf("CSV has %d lines, want 4", len(lines))
	}
	cols := strings.Count(lines[0], ",") + 1
	for i, ln := range lines {
		if got := strings.Count(ln, ",") + 1; got != cols {
			t.Fatalf("line %d has %d columns, header has %d", i, got, cols)
		}
	}
	if !strings.HasPrefix(lines[1], "send/flow1,100,established,2,") {
		t.Fatalf("unexpected first data row: %s", lines[1])
	}
}

func TestParseJSONLRejectsBadInput(t *testing.T) {
	if _, err := ParseJSONL([]byte(`{"type":"meta","schema":"bogus/v9"}`)); err == nil {
		t.Fatal("wrong schema version should fail")
	}
	// Unknown record types are skipped (forward compatibility), not errors.
	if b, err := ParseJSONL([]byte(`{"type":"mystery"}`)); err != nil {
		t.Fatalf("unknown record type should be tolerated: %v", err)
	} else if b.UnknownLines != 1 {
		t.Fatalf("UnknownLines = %d, want 1", b.UnknownLines)
	}
	// A line without a type is unknown too, whatever the line before it.
	if b, err := ParseJSONL([]byte("{\"type\":\"sample\",\"conn\":\"a\"}\n{\"conn\":\"b\"}\nnull")); err != nil {
		t.Fatalf("typeless lines should be tolerated: %v", err)
	} else if b.UnknownLines != 2 || len(b.Conns) != 1 {
		t.Fatalf("typeless lines: UnknownLines = %d, conns = %d; want 2 and 1", b.UnknownLines, len(b.Conns))
	}
	if _, err := ParseJSONL([]byte("not json")); err == nil {
		t.Fatal("malformed line should fail")
	}
}

func TestSummaryMentionsEssentials(t *testing.T) {
	s := sampleBundle().Summary()
	for _, want := range []string{
		"bundle unit", "send/flow1", "recv/flow1",
		"fast_retransmit×1", "delayed_ack×1",
		"1234 events executed", "high-water 17",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "wall") {
		t.Fatal("summary should omit wall line when Wall is zero")
	}
}

// encodeBundle builds a bundle of conns connections with n samples and
// events each. The state changes a fixed number of times per connection
// whatever n is, so the number of distinct state runs does not grow with n.
func encodeBundle(conns, n int) *Bundle {
	b := NewBundle("enc", 7, Options{MaxSamples: n, MaxEvents: n})
	for c := 0; c < conns; c++ {
		r := b.Conn(fmt.Sprintf("send/flow%d", c))
		for i := 0; i < n; i++ {
			state := "established"
			if i < 3 {
				state = "syn_sent"
			}
			at := units.Time(i) * 50 * units.Microsecond
			r.RecordSample(Sample{At: at, State: state, Cwnd: i % 300, Ssthresh: 1 << 20,
				SRTT: 25_000_000 + at/7, RTTVar: at / 11, RTO: 200_000_000_000,
				SndUna: int64(i) * 8948, SndNxt: int64(i+3) * 8948, InFlight: 3 * 8948,
				PeerWnd: 1 << 18, AdvWnd: 17896, PersistShift: i % 3, Retransmits: int64(i / 100),
				FastRetrans: int64(i / 200), Timeouts: int64(i / 1000), DupAcksIn: int64(i / 50)})
			r.RecordEvent(at, EventKind(1+i%int(numEventKinds-1)), int64(i)*1448, i%300, 1<<20, int64(-i))
		}
	}
	b.CaptureEngine(uint64(n)*10, 29)
	return b
}

// randomBundle builds a bundle with random names, states and integers
// (negative and extreme values included) for byte-for-byte reference checks.
func randomBundle(rng *rand.Rand) *Bundle {
	names := []string{"send/flow1", `q"uote\back`, "<a>&b", "line sep ", "bad\xffutf8", ""}
	states := []string{"established", "syn_sent", "fin_wait_1", `"<&>"`, "\xfe", ""}
	val := func() int64 {
		switch rng.Intn(6) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		case 2:
			return -rng.Int63n(1e12)
		}
		return rng.Int63()
	}
	b := NewBundle("random", rng.Int63(), Options{})
	for c := 1 + rng.Intn(4); c > 0; c-- {
		r := b.Conn(names[rng.Intn(len(names))])
		for i := rng.Intn(40); i > 0; i-- {
			r.RecordSample(Sample{At: units.Time(val()), State: states[rng.Intn(len(states))],
				Cwnd: int(val()), Ssthresh: int(val()), SRTT: units.Time(val()),
				RTTVar: units.Time(val()), RTO: units.Time(val()), SndUna: val(), SndNxt: val(),
				InFlight: val(), PeerWnd: val(), AdvWnd: val(), PersistShift: int(val()),
				Retransmits: val(), FastRetrans: val(), Timeouts: val(), DupAcksIn: val()})
			r.RecordEvent(units.Time(val()), EventKind(rng.Intn(int(numEventKinds)+2)),
				val(), int(val()), int(val()), val())
		}
	}
	return b
}

// referenceJSONL is the export as written when every line went through
// json.Marshal: the definition the hand-rendered lines must match.
func referenceJSONL(b *Bundle) []byte {
	var buf bytes.Buffer
	enc := func(v any) {
		j, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		buf.Write(j)
		buf.WriteByte('\n')
	}
	enc(metaLine{Type: "meta", Schema: SchemaVersion, Name: b.Name, Seed: b.Seed})
	for _, r := range b.Conns {
		ds, de := r.Dropped()
		enc(connLine{Type: "conn", Conn: r.Name(), Samples: len(r.Samples()),
			Events: len(r.Events()), DroppedSamples: ds, DroppedEvents: de})
		for _, s := range r.Samples() {
			enc(sampleLine{Type: "sample", Conn: r.Name(), Sample: s})
		}
		for _, ev := range r.Events() {
			enc(eventLine{Type: "event", Conn: r.Name(), Kind: ev.Kind.String(), Event: ev})
		}
	}
	enc(engineLine{Type: "engine", EngineCounters: b.Engine})
	for _, fc := range b.Fabric {
		enc(fabricLine{Type: "fabric", FabricCounters: fc})
	}
	if b.Metrics != nil {
		enc(metricsLine{Type: "metrics", FleetMetrics: *b.Metrics})
	}
	return buf.Bytes()
}

// TestExportsMatchReference checks random bundles against the export as
// written when every line went through json.Marshal.
func TestExportsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		b := randomBundle(rng)
		if i%3 == 0 {
			b.CaptureFabric(FabricCounters{Node: "sw<0>", Forwarded: 3,
				Ports: []FabricPortCounters{{Link: "a/up", Bytes: 9000}}})
			b.Metrics = &FleetMetrics{Flows: 2, Fairness: 0.75}
		}
		if got, want := b.ExportJSONL(), referenceJSONL(b); !bytes.Equal(got, want) {
			t.Fatalf("bundle %d: JSONL differs from json.Marshal:\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestWriteJSONLAllocsIndependentOfSamples gates the encoder's allocation
// property: exporting into an already-grown buffer or io.Discard costs a
// fixed number of allocations per connection, however many samples and
// events each connection holds. A per-line json.Marshal costs one or more
// allocations per line and fails this at once.
func TestWriteJSONLAllocsIndependentOfSamples(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	const conns = 4
	small, large := encodeBundle(conns, 1<<10), encodeBundle(conns, 1<<16)
	allocs := func(b *Bundle, w io.Writer) float64 {
		buf, _ := w.(*bytes.Buffer)
		return testing.AllocsPerRun(3, func() {
			if buf != nil {
				buf.Reset()
			}
			if err := b.WriteJSONL(w); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		name string
		w    func() io.Writer
	}{
		{"grown buffer", func() io.Writer { return new(bytes.Buffer) }},
		{"discard", func() io.Writer { return io.Discard }},
	} {
		s, l := allocs(small, tc.w()), allocs(large, tc.w())
		t.Logf("%s: %v allocs at 1k samples/conn, %v at 64k", tc.name, s, l)
		if s != l {
			t.Errorf("%s: %v allocs at 1k samples/conn but %v at 64k", tc.name, s, l)
		}
		if limit := float64(16*conns + 32); l > limit {
			t.Errorf("%s: %v allocs for %d connections, want at most %v", tc.name, l, conns, limit)
		}
	}
}

// fuzzFields spreads a fuzz input over n int64 fields: field i is raw's
// i-th little-endian 8-byte word where raw has one, else a or b in turn, so
// the seeded extremes reach every field.
func fuzzFields(n int, a, b int64, raw []byte) []int64 {
	out := make([]int64, n)
	for i := range out {
		switch {
		case len(raw) >= 8*(i+1):
			out[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		case i%2 == 0:
			out[i] = a
		default:
			out[i] = b
		}
	}
	return out
}

// FuzzJSONLRecord proves the hand-rendered sample and event lines
// byte-identical to json.Marshal for arbitrary names, states, kinds and
// integers.
func FuzzJSONLRecord(f *testing.F) {
	f.Add("send/flow1", "established", uint8(EventRTO), int64(1), int64(2), []byte(nil))
	f.Add(`q"uo\te`, `back\slash "state"`, uint8(EventFastRetransmit), int64(-7), int64(9), []byte("12345678"))
	f.Add("<script>&amp;", "<>&", uint8(EventSWSClamp), int64(0), int64(1), []byte(nil))
	f.Add("sep x ", " ", uint8(EventNone), int64(3), int64(-3), []byte(nil))
	f.Add("bad\xff\xfeutf8", "\xc3(", uint8(200), int64(5), int64(6), []byte(nil))
	f.Add("ctl\x00\t\n", "\x7f", uint8(numEventKinds), int64(math.MinInt64), int64(math.MaxInt64), []byte(nil))
	f.Add("neg", "syn_sent", uint8(EventDelayedAck), int64(-1_000_000_000), int64(math.MinInt64), []byte(nil))
	f.Add("", "", uint8(0), int64(0), int64(0), []byte(nil))
	f.Fuzz(func(t *testing.T, conn, state string, kind uint8, a, b int64, raw []byte) {
		v := fuzzFields(17, a, b, raw)
		s := Sample{At: units.Time(v[0]), State: state, Cwnd: int(v[1]), Ssthresh: int(v[2]),
			SRTT: units.Time(v[3]), RTTVar: units.Time(v[4]), RTO: units.Time(v[5]),
			SndUna: v[6], SndNxt: v[7], InFlight: v[8], PeerWnd: v[9], AdvWnd: v[10],
			PersistShift: int(v[11]), Retransmits: v[12], FastRetrans: v[13], Timeouts: v[14],
			DupAcksIn: v[15]}
		ev := Event{At: units.Time(v[16]), Kind: EventKind(kind), Seq: v[1], Cwnd: int(v[2]),
			Ssthresh: int(v[3]), Aux: v[4]}
		connJSON, _ := json.Marshal(conn)
		stateJSON, _ := json.Marshal(state)

		want, _ := json.Marshal(sampleLine{Type: "sample", Conn: conn, Sample: s})
		if got := appendSample(nil, connJSON, stateJSON, &s); string(got) != string(want)+"\n" {
			t.Fatalf("sample line\n got %q\nwant %q", got, want)
		}
		want, _ = json.Marshal(eventLine{Type: "event", Conn: conn, Kind: ev.Kind.String(), Event: ev})
		if got := appendEvent(nil, connJSON, &ev); string(got) != string(want)+"\n" {
			t.Fatalf("event line\n got %q\nwant %q", got, want)
		}
	})
}

// FuzzParseJSONL feeds arbitrary bytes to ParseJSONL: it must return a
// bundle or an error, never panic, and any bundle it returns must
// re-export through WriteJSONL and re-parse to the same export.
func FuzzParseJSONL(f *testing.F) {
	f.Add(sampleBundle().ExportJSONL())
	full := encodeBundle(2, 3)
	full.CaptureFabric(FabricCounters{Node: "sw0", Forwarded: 9, Dropped: 1,
		Ports: []FabricPortCounters{{Link: "h0/down", Forwarded: 9, Bytes: 81000, MaxQueued: 9000}}})
	full.Metrics = &FleetMetrics{Flows: 2, Bytes: 4096, FCTP50: 1e9, Fairness: 0.5,
		Classes: []ClassMetrics{{Class: "bulk", Flows: 2, Bytes: 4096, GoodputGbps: 1.25}}}
	f.Add(full.ExportJSONL())
	f.Add(randomBundle(rand.New(rand.NewSource(2))).ExportJSONL())
	f.Add([]byte(`{"type":"event","conn":"x","kind":"no_such_kind","at_ps":-1}`))
	f.Add([]byte("{\"type\":\"sample\",\"conn\":\"\xff\",\"state\":\" \"}\n{\"conn\":\"y\"}\nnull"))
	f.Add([]byte(`{"type":"meta","schema":"bogus/v9"}`))
	f.Add([]byte(`{"type":"mystery"}`))
	f.Add([]byte("not json\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ParseJSONL(data)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := b.WriteJSONL(&first); err != nil {
			t.Fatalf("parsed bundle does not export: %v", err)
		}
		again, err := ParseJSONL(first.Bytes())
		if err != nil {
			t.Fatalf("export does not re-parse: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSONL(&second); err != nil {
			t.Fatalf("re-parsed bundle does not export: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-export differs:\nfirst  %q\nsecond %q", first.Bytes(), second.Bytes())
		}
	})
}
