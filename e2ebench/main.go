// Command e2ebench is tengig's end-to-end benchmark. It runs one workload
// through the simulator's public entry points for a fixed time, checks that
// every simulated output is correct and repeatable, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	e2ebench --workload paper-campaign --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it reports per-layer metrics from a traced run, including the
// traced run's wall-time overhead over an untraced one. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// workload is one set of inputs the benchmark runs, generated from the seed
// when the workload is made.
type workload interface {
	// setup builds the simulated system up to its first event, once, and
	// returns the host time it took.
	setup() (time.Duration, error)
	// run executes the whole workload once. A nil tracer is the untraced
	// run; a traced run records spans and fills outcome.layers.
	run(tr *tracer) (*outcome, error)
	// items is how many points or flows one run attempts.
	items() int
}

// checker is a workload whose outputs must also equal another run's.
type checker interface {
	check(o *outcome) error
}

// outcome is what one run of a workload produced.
type outcome struct {
	wall       time.Duration
	simBits    float64         // simulated application payload bits delivered
	points     []time.Duration // host time per point, in a fixed order
	digest     [32]byte        // SHA-256 of every simulated output
	coreDigest [32]byte        // SHA-256 of the outputs exact across execution paths (fabric: flow results)
	// digests computes digest and coreDigest from the run's outputs; the
	// harness calls it after the run is timed.
	digests func() (full, exact [32]byte, err error)
	anchors []anchor
	layers  map[string]float64 // traced runs only
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed int64) (workload, error){
	"paper-campaign": func(seed int64) (workload, error) { return newCampaign(seed), nil },
	"wan-record":     func(seed int64) (workload, error) { return &wanRecord{seed: seed}, nil },
	"fabric-mesh":    func(seed int64) (workload, error) { return newFabricMesh(seed) },
	"fabric-sharded": func(seed int64) (workload, error) { return newFabricSharded(seed) },
}

// setupsPerRep is how many set-ups are timed before each repetition;
// setup_s is their median over the run.
const setupsPerRep = 8

// minReps is the fewest repetitions an untraced run makes, so that every
// run checks that a repetition reproduces the same outputs.
const minReps = 2

// artifactDir holds the traced run's spans and CPU profile, relative to the
// directory the benchmark runs in.
const artifactDir = ".bench_build/e2ebench"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-campaign, wan-record, fabric-mesh or fabric-sharded")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "how long to measure, in seconds")
	traceF := fs.Int("trace", 0, "0 = end-to-end metrics of an untraced run, 1 = per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceF != 0 && *traceF != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceF)
		return 2
	}
	w, err := mk(*seed)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: generating inputs: %v\n", *name, err)
		return 1
	}
	b := &bench{name: *name, seed: *seed, w: w, seconds: time.Duration(*seconds) * time.Second}
	var rep *report
	if *traceF == 1 {
		rep, err = b.traced()
	} else {
		rep, err = b.measure()
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	rec := record{Stamp: newStamp(*name, *seed, *traceF == 1), Report: rep}
	for _, msg := range rep.Problems {
		fmt.Fprintf(stderr, "e2ebench: %s: correctness: %s\n", *name, msg)
	}
	defs := endToEnd
	if *traceF == 1 {
		defs = perLayer
	}
	out := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := rep.Values[d.Name]
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "%-26s %16.6f %s\n", d.Name, v, d.Unit)
	}
	for _, line := range []any{rec, out} {
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	if !out.Correct {
		return 1
	}
	return 0
}

// bench is one invocation: a workload, its seed and the time to measure.
type bench struct {
	name    string
	seed    int64
	w       workload
	seconds time.Duration
}

// report is everything one invocation measured and checked.
type report struct {
	Values      map[string]float64 `json:"metrics"`
	Reps        int                `json:"reps"`
	RepWalls    []float64          `json:"rep_walls_s"`
	Points      int                `json:"points"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedFrac  float64            `json:"failed_frac"`
	PaperErrPct float64            `json:"paper_err_pct"`
	Anchors     []anchor           `json:"anchors"`
	Digest      string             `json:"digest"`
	Problems    []string           `json:"problems,omitempty"`
}

// record is the self-describing line printed before the result line.
type record struct {
	Stamp  stamp   `json:"stamp"`
	Report *report `json:"report"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// timedRun runs the workload once and times it.
func timedRun(w workload, tr *tracer) (*outcome, error) {
	start := time.Now()
	o, err := w.run(tr)
	if err != nil {
		return nil, err
	}
	o.wall = time.Since(start)
	if len(o.points) == 0 { // a workload without points is one point
		o.points = []time.Duration{o.wall}
	}
	return o, nil
}

// finish computes the outcome's digests, outside the timed region, and
// lets the outputs they cover go.
func (o *outcome) finish() error {
	if o.digests == nil {
		return nil
	}
	var err error
	o.digest, o.coreDigest, err = o.digests()
	o.digests = nil
	return err
}

// reps runs the workload until d has passed and at least min runs are
// done, calling pre (if not nil) ahead of each run. Traced, each run gets
// a tracer, returned in run order, and the Go runtime's allocation and GC
// counts around it. A run that errors stops the loop and is returned as the
// error.
func (b *bench) reps(d time.Duration, min int, traced bool, pre func() error) ([]*outcome, []*tracer, error) {
	var outs []*outcome
	var tracers []*tracer
	deadline := time.Now().Add(d)
	for len(outs) < min || time.Now().Before(deadline) {
		if pre != nil {
			if err := pre(); err != nil {
				return outs, tracers, err
			}
		}
		runtime.GC() // each repetition starts from the same heap, as a fresh sweep does
		var tr *tracer
		var before, after runtime.MemStats
		if traced {
			tr = newTracer()
			tracers = append(tracers, tr)
			runtime.ReadMemStats(&before)
		}
		o, err := timedRun(b.w, tr)
		if err != nil {
			return outs, tracers, err
		}
		if traced {
			runtime.ReadMemStats(&after)
			o.layers["go.alloc_bytes_per_event"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), o.layers["sim.events"])
			o.layers["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
		}
		if err := o.finish(); err != nil {
			return outs, tracers, err
		}
		outs = append(outs, o)
	}
	return outs, tracers, nil
}

// tally checks a set of runs for correctness: every run must give the
// first run's digest, the first run's anchors must hold, and for a checker
// the last run must match its reference runs. It returns the report's
// counts and problems.
func (b *bench) tally(outs []*outcome, runErr error) *report {
	r := &report{Values: map[string]float64{}, Reps: len(outs)}
	n := b.w.items()
	for _, o := range outs {
		r.Attempted += n
		if o.digest != outs[0].digest {
			r.Failed += n
			r.Problems = append(r.Problems, fmt.Sprintf("repetition digest %x differs from %x", o.digest[:8], outs[0].digest[:8]))
		}
	}
	if runErr != nil {
		r.Attempted += n
		r.Failed += n
		r.Problems = append(r.Problems, runErr.Error())
	}
	if len(outs) == 0 {
		return r
	}
	first := outs[0]
	r.Digest = fmt.Sprintf("%x", first.digest)
	r.Points = len(first.points)
	r.Anchors = first.anchors
	for _, a := range first.anchors {
		r.Attempted++
		r.PaperErrPct += a.errPct() / float64(len(first.anchors))
		if !a.ok() {
			r.Failed++
			r.Problems = append(r.Problems, fmt.Sprintf("anchor %s = %.3f Gb/s outside [%.2f, %.2f] (paper %.2f)", a.Name, a.Sim, a.Lo, a.Hi, a.Paper))
		}
	}
	if c, ok := b.w.(checker); ok && runErr == nil {
		r.Attempted += n
		if err := c.check(outs[len(outs)-1]); err != nil {
			r.Failed += n
			r.Problems = append(r.Problems, err.Error())
		}
	}
	if r.Attempted > 0 {
		r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	}
	return r
}

// measure is the untraced run: one warm-up set-up and one warm-up
// repetition, then whole repetitions of the workload for the measuring
// time, each preceded by setupsPerRep timed set-ups so that the set-up
// samples are spread over the whole run. The warm-up repetition is checked
// like the others but not timed.
func (b *bench) measure() (*report, error) {
	if _, err := b.w.setup(); err != nil { // warm caches and lazy state first
		return nil, fmt.Errorf("setup: %w", err)
	}
	warm, _, runErr := b.reps(0, 1, false, nil)
	if runErr != nil {
		return b.tally(warm, runErr), nil
	}
	var setups []float64
	setupBatch := func() error {
		for range setupsPerRep {
			runtime.GC() // so no build pays for an earlier one's garbage
			d, err := b.w.setup()
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	outs, _, runErr := b.reps(b.seconds, minReps, false, setupBatch)
	r := b.tally(append(warm, outs...), runErr)
	if len(outs) == 0 {
		return r, nil
	}
	setup := median(setups)
	var walls, rates []float64
	for _, o := range outs {
		walls = append(walls, o.wall.Seconds())
		r.RepWalls = append(r.RepWalls, o.wall.Seconds())
		rates = append(rates, o.simBits/1e9/max(o.wall.Seconds()-setup, 1e-9))
	}
	// Each point's time is its median over the repetitions, so the
	// percentiles describe points, not one noisy repetition.
	pts := make([]float64, len(outs[0].points))
	for i := range pts {
		var v []float64
		for _, o := range outs {
			v = append(v, float64(o.points[i].Nanoseconds())/1e6)
		}
		pts[i] = median(v)
	}
	r.Values["setup_s"] = setup
	r.Values["wall_s"] = median(walls)
	r.Values["sim_gbit_per_wall_s"] = median(rates)
	r.Values["point_wall_ms_p50"] = percentile(pts, 50)
	r.Values["point_wall_ms_p96"] = percentile(pts, 96)
	r.Values["peak_rss_mb"] = peakRSSMB()
	return r, nil
}

// traced is the traced run: untraced repetitions for the first half of the
// measuring time, then traced ones under the CPU profiler for the second
// half. Per-layer values are medians over the traced repetitions.
func (b *bench) traced() (*report, error) {
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(artifactDir, fmt.Sprintf("%s-s%d", b.name, b.seed))
	plain, _, runErr := b.reps(b.seconds/2, 1, false, nil)
	if runErr != nil {
		return b.tally(plain, runErr), nil
	}
	prof, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	traced, tracers, runErr := b.reps(b.seconds/2, 1, true, nil)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return b.tally(append(plain, traced...), runErr), nil
	}
	if err := writeSpans(stem+".spans.jsonl", tracers); err != nil {
		return nil, err
	}

	var problems []string
	for _, k := range simulatedMetrics {
		for _, o := range traced[1:] {
			if o.layers[k] != traced[0].layers[k] {
				problems = append(problems, fmt.Sprintf("%s = %v on one traced repetition, %v on another", k, o.layers[k], traced[0].layers[k]))
			}
		}
	}
	layers := map[string]float64{}
	for _, d := range perLayer {
		var v []float64
		for _, o := range traced {
			v = append(v, o.layers[d.Name])
		}
		layers[d.Name] = median(v)
	}
	// tally runs the reference check on the last outcome, which fills in
	// the per-layer values only a reference run can read.
	traced[len(traced)-1].layers = layers
	r := b.tally(append(plain, traced...), nil)
	r.Failed += len(problems)
	r.Problems = append(r.Problems, problems...)
	var pw, tw []float64
	for _, o := range plain {
		pw = append(pw, o.wall.Seconds())
	}
	for _, o := range traced {
		tw = append(tw, o.wall.Seconds())
	}
	layers["tracing_overhead_pct"] = 100 * (median(tw)/median(pw) - 1)
	shares, err := cpuShares(prof.Name())
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		layers[k] = v
	}
	layers["model.anchors"] = float64(len(r.Anchors))
	layers["model.paper_err_pct"] = r.PaperErrPct
	r.Values = layers
	if r.Attempted > 0 {
		r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	}
	return r, nil
}

// writeSpans writes every traced repetition's spans to path, tagged with
// the repetition number.
func writeSpans(path string, tracers []*tracer) error {
	var buf bytes.Buffer
	for i, t := range tracers {
		fmt.Fprintf(&buf, "{\"repetition\":%d}\n", i)
		if err := t.writeJSONL(&buf); err != nil {
			return err
		}
		self := t.selfTimes()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&buf, "{\"self\":%q,\"ns\":%d}\n", n, self[n].Nanoseconds())
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
