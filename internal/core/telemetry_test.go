package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tengig/internal/runner"
	"tengig/internal/telemetry"
	"tengig/internal/tools"
	"tengig/internal/trace"
	"tengig/internal/units"
)

// TestProbeRecoveryEpisode is the acceptance test for the tcpprobe path:
// a calibrated PE2650 run with a single induced loss must reproduce, in the
// JSONL export, the cwnd story the paper reads off the kernel instruments —
// slow start, the plateau once the window fills, and a recovery episode.
func TestProbeRecoveryEpisode(t *testing.T) {
	res, err := ProbeRun(ProbeConfig{
		Seed:    1,
		Profile: PE2650,
		Tuning:  Optimized(9000),
		Count:   1500,
		Payload: 8948,
		Impair:  Impairments{AtoB: FaultConfig{DropNth: 600}},
		Telemetry: telemetry.Options{
			Enabled:        true,
			SampleInterval: 10 * units.Microsecond,
		},
	})
	if err != nil {
		t.Fatalf("ProbeRun: %v", err)
	}

	// Everything below reads the machine-readable export, not the live
	// bundle: the JSONL contract is what downstream tooling sees.
	parsed, err := telemetry.ParseJSONL(res.Bundle.ExportJSONL())
	if err != nil {
		t.Fatalf("ParseJSONL: %v", err)
	}
	rec := parsed.Lookup(res.SenderConn)
	if rec == nil {
		t.Fatalf("sender %q missing from export", res.SenderConn)
	}
	samples := rec.Samples()
	if len(samples) < 100 {
		t.Fatalf("only %d samples; sampler did not run", len(samples))
	}

	red := rec.FirstEvent(telemetry.EventCwndReduction)
	if red == nil {
		t.Fatal("no cwnd_reduction event despite induced loss")
	}

	// Slow start: cwnd opens small and only grows until the loss.
	pre := rec.SamplesBetween(0, red.At)
	if len(pre) < 20 {
		t.Fatalf("only %d pre-loss samples", len(pre))
	}
	if pre[0].Cwnd > 4 {
		t.Fatalf("first cwnd sample %d; slow start should open near 2", pre[0].Cwnd)
	}
	maxPre := 0
	for i, s := range pre {
		if i > 0 && s.Cwnd < pre[i-1].Cwnd {
			t.Fatalf("pre-loss cwnd shrank %d -> %d at %v", pre[i-1].Cwnd, s.Cwnd, s.At)
		}
		if s.Cwnd > maxPre {
			maxPre = s.Cwnd
		}
	}
	if maxPre <= pre[0].Cwnd {
		t.Fatalf("cwnd never grew (max %d)", maxPre)
	}

	// Plateau: once the window fills, consecutive samples sit at the same
	// MSS-counted cwnd (the flat top §3.5.1's instrument traces show).
	plateau := 0
	for _, s := range pre {
		if s.Cwnd == maxPre {
			plateau++
		}
	}
	if plateau < 5 {
		t.Fatalf("cwnd plateau only %d samples at max %d, want >= 5", plateau, maxPre)
	}

	// Recovery episode: the loss triggered fast retransmit (or an RTO),
	// cut cwnd below the plateau, and reset ssthresh from its initial huge
	// value to a genuine estimate.
	fr := rec.FirstEvent(telemetry.EventFastRetransmit)
	rto := rec.FirstEvent(telemetry.EventRTO)
	if fr == nil && rto == nil {
		t.Fatal("no fast_retransmit or rto_fire event despite induced loss")
	}
	if red.Cwnd >= maxPre {
		t.Fatalf("cwnd after reduction %d, want < plateau %d", red.Cwnd, maxPre)
	}
	if red.Ssthresh >= 1<<20 {
		t.Fatalf("ssthresh %d not reset by recovery", red.Ssthresh)
	}
	post := rec.SamplesBetween(red.At, samples[len(samples)-1].At+1)
	if len(post) == 0 {
		t.Fatal("no post-loss samples")
	}
	dipped := false
	for _, s := range post {
		if s.Cwnd < maxPre {
			dipped = true
			break
		}
	}
	if !dipped {
		t.Fatal("post-loss samples never show the recovery dip")
	}
	if last := samples[len(samples)-1]; last.Retransmits == 0 {
		t.Fatal("sender counters show no retransmission")
	}
}

// TestSweepTelemetryDeterminism is the serial-vs-parallel contract for the
// telemetry exports: same seed, same points — byte-identical JSONL and CSV
// whether the sweep ran on one worker or several.
func TestSweepTelemetryDeterminism(t *testing.T) {
	run := func(workers int) *SweepResult {
		res, err := SweepConfig{
			Seed: 7, Profile: PE2650, Tuning: Optimized(9000),
			Payloads: []int{4096, 8948}, Count: 400, Workers: workers,
			Telemetry: telemetry.Options{Enabled: true},
		}.Run()
		if err != nil {
			t.Fatalf("sweep (workers=%d): %v", workers, err)
		}
		return res
	}
	serial, fanned := run(1), run(4)
	if len(serial.Points) != len(fanned.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(serial.Points), len(fanned.Points))
	}
	for i := range serial.Points {
		s, f := serial.Points[i].Telemetry, fanned.Points[i].Telemetry
		if s == nil || f == nil {
			t.Fatalf("point %d: missing bundle", i)
		}
		if s.Name != f.Name {
			t.Fatalf("point %d: bundle names differ: %q vs %q", i, s.Name, f.Name)
		}
		if !bytes.Equal(s.ExportJSONL(), f.ExportJSONL()) {
			t.Fatalf("point %d (%s): JSONL differs serial vs parallel", i, s.Name)
		}
		if !bytes.Equal(s.ExportCSV(), f.ExportCSV()) {
			t.Fatalf("point %d (%s): CSV differs serial vs parallel", i, s.Name)
		}
	}
}

// TestParallelInstrumentationIsolation fans instrumented runs across a
// worker pool with every run owning a private engine, tracer, and telemetry
// bundle. Under -race (CI runs the suite with the detector on) this proves
// the trace.Tracer single-goroutine contract: per-run instruments never
// share state across workers.
func TestParallelInstrumentationIsolation(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	type probe struct {
		samples int
		paths   int
	}
	out, err := runner.Map(seeds, 4, func(i int, seed int64) (probe, error) {
		pair, err := BackToBack(seed, PE2650, Optimized(9000))
		if err != nil {
			return probe{}, err
		}
		tr := trace.New(2, 16)
		pair.SrcHost.SetTracer(tr)
		pair.DstHost.SetTracer(tr)
		b := AttachTelemetry(pair, fmt.Sprintf("iso%d", i), seed,
			telemetry.Options{Enabled: true})
		if _, err := tools.NTTCP(pair, 200, 4096, units.Minute); err != nil {
			return probe{}, err
		}
		CapturePairEngine(b, pair)
		return probe{
			samples: len(b.Conns[0].Samples()),
			paths:   len(tr.PathCounts()),
		}, nil
	})
	if err != nil {
		t.Fatalf("runner: %v", err)
	}
	for i, p := range out {
		if p.samples == 0 {
			t.Errorf("run %d recorded no telemetry samples", i)
		}
		if p.paths == 0 {
			t.Errorf("run %d traced no packet paths", i)
		}
	}
}

// TestWriteBundleStreamsExports checks that the on-disk exports, streamed
// to their files, hold exactly the in-memory export bytes, and that writing
// again truncates rather than appends.
func TestWriteBundleStreamsExports(t *testing.T) {
	res, err := ProbeRun(ProbeConfig{
		Name: "stream/probe", Seed: 5, Profile: PE2650, Tuning: Optimized(9000),
		Count: 200, Payload: 8948, Telemetry: telemetry.Options{Enabled: true},
	})
	if err != nil {
		t.Fatalf("ProbeRun: %v", err)
	}
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		if err := WriteBundle(dir, res.Bundle); err != nil {
			t.Fatalf("WriteBundle: %v", err)
		}
	}
	for ext, want := range map[string][]byte{
		".jsonl": res.Bundle.ExportJSONL(),
		".csv":   res.Bundle.ExportCSV(),
	} {
		got, err := os.ReadFile(filepath.Join(dir, "stream-probe"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s file (%d B) differs from the in-memory export (%d B)", ext, len(got), len(want))
		}
	}
}
