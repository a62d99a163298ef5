package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tengig/internal/core"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/units"
)

// campaignCount is the writes per sweep point: the sweep command's default
// (non -full) count, so the campaign is what `sweep -fig 3/4/5 -exp ladder`
// runs.
const campaignCount = 3000

// campaignTimeout is SweepConfig's default per-point bound.
const campaignTimeout = 30 * units.Second

// campaignExtras is how many payloads the seed adds to the default grid.
// With the default grid's 22 points that makes 28 per sweep and 280 per
// campaign, enough for a p96 point time with 11 points beyond it.
const campaignExtras = 6

// anchor is one paper value the simulator is checked against. lo/hi are the
// tolerance calibrate_test.go or wan_test.go pins for the same configuration;
// hasTol is false where no test pins one (a documented deviation).
type anchor struct {
	Name   string  `json:"name"`
	Paper  float64 `json:"paper_gbps"`
	Sim    float64 `json:"sim_gbps"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	HasTol bool    `json:"gated"`
}

func (a anchor) errPct() float64 {
	d := a.Sim - a.Paper
	if d < 0 {
		d = -d
	}
	return 100 * d / a.Paper
}

func (a anchor) ok() bool { return !a.HasTol || (a.Sim >= a.Lo && a.Sim <= a.Hi) }

// campaignSweep is one sweep of the paper campaign with the paper's peak
// for it.
type campaignSweep struct {
	name   string
	tuning core.Tuning
	paper  float64
	lo, hi float64 // 0, 0 = no pinned tolerance
}

// paperSweeps is Figures 3, 4, 5 and the §3.3 ladder, in the order
// `sweep -all` runs them. The ladder's stock and +256KB rungs repeat
// Figure 3's and Figure 4's 9000-byte sweeps, as they do in `sweep -all`.
func paperSweeps() []campaignSweep {
	out := []campaignSweep{
		{"fig3 stock 1500", core.Stock(1500), 1.8, 1.3, 2.1},
		{"fig3 stock 9000", core.Stock(9000), 2.7, 2.4, 3.0},
		{"fig4 optimized 1500", core.Optimized(1500), 2.47, 2.2, 2.7},
		{"fig4 optimized 9000", core.Optimized(9000), 3.9, 3.5, 4.2},
		{"fig5 optimized 8160", core.Optimized(8160), 4.11, 3.9, 4.5},
		{"fig5 optimized 16000", core.Optimized(16000), 4.09, 3.9, 4.6},
	}
	// Paper §3.3: stock 2.7 -> +MMRBC 3.6 -> +UP ~3.6 -> +256K 3.9 Gb/s.
	// The +UP rung has no pinned tolerance: EXPERIMENTS.md records it as
	// deviation D4.
	ladder := []struct{ paper, lo, hi float64 }{
		{2.7, 2.4, 3.0}, {3.6, 3.3, 4.3}, {3.6, 0, 0}, {3.9, 3.5, 4.2},
	}
	for i, r := range core.LadderRungs(9000) {
		l := ladder[i]
		out = append(out, campaignSweep{"ladder " + r.Name, r.Tuning, l.paper, l.lo, l.hi})
	}
	return out
}

// campaignPayloads is the default grid plus campaignExtras payloads the seed
// draws from the paper's 128-byte-step grid, sorted. The grid points not in
// the default grid are cut into campaignExtras equal bands and one payload
// is drawn from each, so every seed adds about the same amount of work.
func campaignPayloads(seed int64) []int {
	grid := core.DefaultPayloads()
	have := map[int]bool{}
	for _, p := range grid {
		have[p] = true
	}
	var pool []int
	for p := 128; p <= 16384; p += 128 {
		if !have[p] {
			pool = append(pool, p)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := append([]int(nil), grid...)
	band := len(pool) / campaignExtras
	for b := 0; b < campaignExtras; b++ {
		out = append(out, pool[b*band+rng.Intn(band)])
	}
	sort.Ints(out)
	return out
}

// campaign is the paper-campaign workload: the serial LAN sweep campaign on
// PE2650 back-to-back pairs.
type campaign struct {
	seed     int64
	payloads []int
}

func newCampaign(seed int64) *campaign {
	return &campaign{seed: seed, payloads: campaignPayloads(seed)}
}

// campaignPoint is the part of a sweep point that is simulated output.
type campaignPoint struct {
	Sweep   string                 `json:"sweep"`
	Payload int                    `json:"payload"`
	Result  tools.ThroughputResult `json:"result"`
}

func (c *campaign) items() int { return len(paperSweeps()) * len(c.payloads) }

func (c *campaign) setup() (time.Duration, error) {
	eng := sim.NewEngine(0)
	start := time.Now()
	for _, s := range paperSweeps() {
		for range c.payloads {
			eng.Reset(c.seed)
			if _, err := core.BackToBackOn(eng, core.PE2650, s.tuning); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// run executes the campaign. Untraced, it goes through SweepConfig.Run with
// one worker, exactly as `sweep` does. Traced, it drives each point through
// the same public calls SweepConfig.Run makes (engine Reset, testbed
// constructor, NTTCP) so it can time them and read every layer's counters;
// the harness checks that both give the same digest.
func (c *campaign) run(tr *tracer) (*outcome, error) {
	sweeps := paperSweeps()
	seed, payloads := c.seed, c.payloads
	o := &outcome{}
	var pts []campaignPoint
	var m model
	var runEvents uint64
	eng := sim.NewEngine(0)
	grid := map[int]bool{}
	for _, p := range core.DefaultPayloads() {
		grid[p] = true
	}
	for _, s := range sweeps {
		var results []tools.ThroughputResult
		if tr == nil {
			res, err := core.SweepConfig{
				Seed: seed, Profile: core.PE2650, Tuning: s.tuning,
				Payloads: payloads, Count: campaignCount, Timeout: campaignTimeout,
				Workers: 1,
			}.Run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			for _, pt := range res.Points {
				results = append(results, pt.ThroughputResult)
				o.points = append(o.points, pt.Wall)
			}
		} else {
			for _, payload := range payloads {
				start := time.Now()
				eng.Reset(seed)
				tr.begin("core.testbed")
				pair, err := core.BackToBackOn(eng, core.PE2650, s.tuning)
				tr.end()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", s.name, err)
				}
				tr.begin("sim.run")
				e0 := eng.Executed
				r, err := tools.NTTCP(pair, campaignCount, payload, campaignTimeout)
				runEvents += eng.Executed - e0
				tr.end()
				if err != nil {
					return nil, fmt.Errorf("%s: payload %d: %w", s.name, payload, err)
				}
				results = append(results, r)
				o.points = append(o.points, time.Since(start))
				m.addEngineOf(eng)
				m.addConn(pair.Src.Conn, pair.Dst.Conn)
				m.addHost(pair.SrcHost, eng.Now())
				m.addHost(pair.DstHost, eng.Now())
			}
		}
		peak := 0.0 // over the default grid, so the seed cannot move the anchors
		for i, r := range results {
			pts = append(pts, campaignPoint{Sweep: s.name, Payload: payloads[i], Result: r})
			o.simBits += 8 * float64(r.Bytes)
			if grid[payloads[i]] {
				peak = max(peak, r.Throughput.Gbps())
			}
		}
		o.anchors = append(o.anchors, anchor{
			Name: s.name, Paper: s.paper, Sim: peak, Lo: s.lo, Hi: s.hi, HasTol: s.hi > 0,
		})
	}
	o.digests = func() (full, exact [32]byte, err error) {
		data, err := json.Marshal(pts)
		full = sha256.Sum256(data)
		return full, full, err
	}
	if tr != nil {
		o.layers = map[string]float64{
			"sim.ns_per_event": ratio(float64(tr.total("sim.run").Nanoseconds()), float64(runEvents)),
			"core.point_build_us": ratio(float64(tr.total("core.testbed").Nanoseconds())/1e3,
				float64(tr.count("core.testbed"))),
		}
		m.metrics(o.layers)
	}
	return o, nil
}
