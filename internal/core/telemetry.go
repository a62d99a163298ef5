package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tengig/internal/tcp"
	"tengig/internal/telemetry"
	"tengig/internal/tools"
	"tengig/internal/units"
)

// AttachTelemetry instruments both endpoints of a connected pair with
// Web100-style recorders and starts their periodic samplers. Call after
// Connect and before driving traffic; finish with CapturePairEngine once
// the run is over.
func AttachTelemetry(p *tools.Pair, name string, seed int64, opt telemetry.Options) *telemetry.Bundle {
	b := telemetry.NewBundle(name, seed, opt)
	for _, conn := range []*tcp.Conn{p.Src.Conn, p.Dst.Conn} {
		rec := b.Conn(conn.Name())
		conn.SetTelemetry(rec)
		conn.StartTelemetrySampler(opt.Interval())
	}
	return b
}

// CapturePairEngine copies the pair's engine counters into the bundle.
func CapturePairEngine(b *telemetry.Bundle, p *tools.Pair) {
	b.CaptureEngine(p.Eng.Executed, p.Eng.HighWater)
}

// SanitizeName maps a tuning label (or any free-form run name) onto a
// filesystem-safe export stem: [A-Za-z0-9._-] survive, everything else
// becomes '-'.
func SanitizeName(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	return sb.String()
}

// WriteBundle writes a bundle's machine-readable exports into dir:
// <name>.jsonl (full record) and <name>.csv (instrument series). The
// directory is created if needed. Each export streams straight to its file;
// neither is held in memory whole.
func WriteBundle(dir string, b *telemetry.Bundle) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, SanitizeName(b.Name))
	if err := writeFile(stem+".jsonl", b.WriteJSONL); err != nil {
		return err
	}
	return writeFile(stem+".csv", b.WriteCSV)
}

// writeFile creates (or truncates) name and streams write into it.
func writeFile(name string, write func(io.Writer) error) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ProbeConfig describes one tcpprobe run: a single instrumented transfer,
// optionally through netem-style impairments.
type ProbeConfig struct {
	Name    string // export stem; derived from the tuning when empty
	Seed    int64
	Profile Profile
	Tuning  Tuning
	// Count writes of Payload bytes each (NTTCP semantics).
	Count, Payload int
	// Impair injects faults on the crossover link; the zero value runs the
	// clean Figure 2(a) topology.
	Impair Impairments
	// Telemetry bounds and cadence; Enabled is implied.
	Telemetry telemetry.Options
	// Timeout bounds the simulated transfer (default 10 simulated minutes).
	Timeout units.Time
}

// ProbeResult is a completed probe run.
type ProbeResult struct {
	Bundle   *telemetry.Bundle
	Transfer tools.ThroughputResult
	// SenderConn names the sender's recorder inside the bundle.
	SenderConn string
}

// ProbeRun executes one instrumented transfer — the engine behind
// cmd/tcpprobe and the telemetry integration tests.
func ProbeRun(cfg ProbeConfig) (*ProbeResult, error) {
	if cfg.Count <= 0 {
		cfg.Count = 3000
	}
	if cfg.Payload <= 0 {
		cfg.Payload = 8948
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * units.Minute
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("probe_%s_p%d", SanitizeName(cfg.Tuning.Label()), cfg.Payload)
	}
	var (
		pair *tools.Pair
		err  error
	)
	if cfg.Impair == (Impairments{}) {
		pair, err = BackToBack(cfg.Seed, cfg.Profile, cfg.Tuning)
	} else {
		pair, _, _, err = BackToBackImpaired(cfg.Seed, cfg.Profile, cfg.Tuning, cfg.Impair)
	}
	if err != nil {
		return nil, err
	}
	bundle := AttachTelemetry(pair, cfg.Name, cfg.Seed, cfg.Telemetry)
	res, err := tools.NTTCP(pair, cfg.Count, cfg.Payload, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	CapturePairEngine(bundle, pair)
	return &ProbeResult{
		Bundle:     bundle,
		Transfer:   res,
		SenderConn: pair.Src.Conn.Name(),
	}, nil
}
