package bench

import (
	"fmt"
	"sort"
)

// Finding is one baseline-vs-current comparison result. Only metrics past
// the regression threshold are reported; matches within tolerance just count
// toward Report.Compared.
type Finding struct {
	// Name identifies the measurement, e.g. "fig3/stock-mtu1500 payload 8948"
	// or "TimerChurn".
	Name string
	// Metric is what regressed: "gbps", "peak_gbps", or "allocs_op".
	Metric   string
	Baseline float64
	Current  float64
	// DeltaPct is the signed relative change, current vs baseline (negative
	// = current is worse for throughput; positive = worse for allocs).
	DeltaPct float64
}

func (f Finding) String() string {
	return fmt.Sprintf("%s %s: baseline %.4g, current %.4g (%+.2f%%)",
		f.Name, f.Metric, f.Baseline, f.Current, f.DeltaPct)
}

// Report summarizes one baseline file's gate run.
type Report struct {
	// Compared counts individual measurements checked against the baseline.
	Compared int
	// Skipped lists baseline entries that could not be checked (sweep not
	// run this invocation, payload grid mismatch, no probe for a benchmark)
	// — surfaced so a gate that silently checked nothing is visible.
	Skipped []string
	// Regressions are the findings past the threshold.
	Regressions []Finding
}

// Failed reports whether the gate should fail the run.
func (r *Report) Failed() bool { return len(r.Regressions) > 0 }

// CompareSweeps checks current sweep results against a baseline file.
// Sweeps match on (figure, label); points match on payload. Throughput is
// simulation-deterministic, so threshold is a safety margin for calibration
// drift (e.g. 0.02 = fail on >2% loss), not machine noise. Only losses gate;
// improvements pass silently. Baseline sweeps the current run did not
// execute are skipped — the gate checks what ran, the caller decides what
// runs.
func CompareSweeps(baseline, current *SweepFile, threshold float64) *Report {
	rep := &Report{}
	type key struct{ figure, label string }
	cur := make(map[key]*Sweep, len(current.Sweeps))
	for i := range current.Sweeps {
		s := &current.Sweeps[i]
		cur[key{s.Figure, s.Label}] = s
	}
	for i := range baseline.Sweeps {
		base := &baseline.Sweeps[i]
		name := base.Figure + "/" + base.Label
		c := cur[key{base.Figure, base.Label}]
		if c == nil {
			rep.Skipped = append(rep.Skipped, name+" (not run)")
			continue
		}
		byPayload := make(map[int]float64, len(c.Points))
		for _, pt := range c.Points {
			byPayload[pt.Payload] = pt.Gbps
		}
		matched := 0
		for _, pt := range base.Points {
			gbps, ok := byPayload[pt.Payload]
			if !ok {
				continue
			}
			matched++
			rep.Compared++
			if loss := relDelta(pt.Gbps, gbps); loss < -threshold {
				rep.Regressions = append(rep.Regressions, Finding{
					Name:     fmt.Sprintf("%s payload %d", name, pt.Payload),
					Metric:   "gbps",
					Baseline: pt.Gbps, Current: gbps, DeltaPct: loss * 100,
				})
			}
		}
		if matched == 0 && len(base.Points) > 0 {
			rep.Skipped = append(rep.Skipped, name+" (no overlapping payloads)")
			continue
		}
		rep.Compared++
		if loss := relDelta(base.PeakGbps, c.PeakGbps); loss < -threshold {
			rep.Regressions = append(rep.Regressions, Finding{
				Name:     name,
				Metric:   "peak_gbps",
				Baseline: base.PeakGbps, Current: c.PeakGbps,
				DeltaPct: loss * 100,
			})
		}
	}
	return rep
}

// CompareKernel re-measures each baseline benchmark's allocations in-process
// and checks them against the file's "after" column — the committed claim
// about the current tree. Allocations per op are deterministic, so any
// increase is a regression; ns/op is wall-clock noise and is never gated.
func CompareKernel(kf *KernelFile) *Report {
	rep := &Report{}
	for _, name := range sortedKeys(kf.Benchmarks) {
		checkAllocs(rep, name, kf.Benchmarks[name].After.AllocsPerOp)
	}
	return rep
}

// checkAllocs probes one workload and folds the result into the report.
func checkAllocs(rep *Report, name string, baseline int64) {
	got, err := MeasureAllocs(name)
	if err != nil {
		rep.Skipped = append(rep.Skipped, name+": "+err.Error())
		return
	}
	rep.Compared++
	if got > baseline {
		rep.Regressions = append(rep.Regressions, Finding{
			Name:     name,
			Metric:   "allocs_op",
			Baseline: float64(baseline), Current: float64(got),
			DeltaPct: relDelta(float64(baseline), float64(got)) * 100,
		})
	}
}

// relDelta is (current-baseline)/baseline, tolerating a zero baseline.
func relDelta(baseline, current float64) float64 {
	if baseline == 0 {
		if current == 0 {
			return 0
		}
		return 1
	}
	return (current - baseline) / baseline
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
