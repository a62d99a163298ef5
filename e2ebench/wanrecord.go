package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"tengig/internal/core"
	"tengig/internal/ethernet"
	"tengig/internal/fabric"
	"tengig/internal/host"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/units"
	"tengig/internal/wan"
)

// wanDuration is the measured window `sweep -exp wan` asks RunWAN for.
const wanDuration = 15 * units.Second

// wanCases are the two RunWAN calls `sweep -exp wan` makes: the BDP-sized
// record run and the 3xBDP counterfactual.
var wanCases = []struct {
	name    string
	sockBuf int
}{
	{"record", 0},
	{"3xBDP counterfactual", 3 * 54 * 1024 * 1024},
}

// wanAnchor is §4's sustained Sunnyvale->Geneva rate, with wan_test.go's
// tolerance for the record run.
var wanAnchor = anchor{Name: "wan record", Paper: 2.38, Lo: 2.25, Hi: 2.40, HasTol: true}

// wanOut is the part of a WAN run that is simulated output.
type wanOut struct {
	Case            string          `json:"case"`
	Bytes           int64           `json:"bytes"`
	Elapsed         units.Time      `json:"elapsed"`
	Throughput      units.Bandwidth `json:"throughput"`
	BottleneckDrops int64           `json:"bottleneck_drops"`
	Retransmits     int64           `json:"retransmits"`
	Timeouts        int64           `json:"timeouts"`
	RTT             units.Time      `json:"rtt"`
}

// wanRig is the system RunWAN builds, built here from the same public
// calls (core.BuildHost, wan.Build, socket open, handshake) so its set-up
// can be timed and its layers read. The traced run checks that driving it
// reproduces RunWAN's outputs exactly.
type wanRig struct {
	eng        *sim.Engine
	west, east *host.Host
	path       *wan.Path
	pair       *tools.Pair
}

func buildWAN(seed int64, sockBuf int) (*wanRig, error) {
	mtu := ethernet.MTUJumbo
	eng := sim.NewEngine(seed)
	t := core.Stock(mtu)
	t.TxQueueLen = 10000
	t.MMRBC = 4096
	west := core.BuildHost(eng, core.WANXeon, t, "sunnyvale", 1)
	east := core.BuildHost(eng, core.WANXeon, t, "geneva", 2)
	path := wan.Build(eng, west, east, 0, 0, wan.DefaultConfig())
	buf := sockBuf
	if buf == 0 {
		buf = path.BDP(mtu) * 4 / 3
		buf += buf / 10
	}
	cfg := t.WithWindowScale(buf).TCPConfig()
	src := west.OpenSocket(1, east.Addr(), cfg, 0)
	dst := east.OpenSocket(1, west.Addr(), cfg, 0)
	pair := &tools.Pair{Eng: eng, SrcHost: west, DstHost: east, Src: src, Dst: dst}
	if err := pair.Connect(10 * units.Second); err != nil {
		return nil, fmt.Errorf("wan handshake: %w", err)
	}
	return &wanRig{eng: eng, west: west, east: east, path: path, pair: pair}, nil
}

// drive runs RunWAN's measurement on a built rig: a 6 s warm-up, then the
// measured window.
func (r *wanRig) drive() wanOut {
	var received int64
	r.pair.Dst.SetAutoRead(func(n int64) { received += n })
	r.pair.Src.Send(1<<50, 256*1024, false, nil)
	r.eng.RunUntil(r.eng.Now() + 6*units.Second)
	received = 0
	start := r.eng.Now()
	r.eng.RunUntil(start + wanDuration)
	elapsed := r.eng.Now() - start
	c := r.pair.Src.Conn
	return wanOut{
		Bytes: received, Elapsed: elapsed, Throughput: units.Throughput(received, elapsed),
		BottleneckDrops: r.path.BottleneckEast.Drops(),
		Retransmits:     c.Stats.Retransmits, Timeouts: c.Stats.Timeouts, RTT: c.SRTT(),
	}
}

// wanRecord is the wan-record workload: §4's Sunnyvale->Geneva runs. Its
// two runs form one experiment, so a repetition is one point.
type wanRecord struct{ seed int64 }

func (w *wanRecord) items() int { return len(wanCases) }

func (w *wanRecord) setup() (time.Duration, error) {
	start := time.Now()
	for _, c := range wanCases {
		if _, err := buildWAN(w.seed, c.sockBuf); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func (wr *wanRecord) run(tr *tracer) (*outcome, error) {
	seed := wr.seed
	o := &outcome{}
	var outs []wanOut
	var m model
	var runEvents uint64
	for _, c := range wanCases {
		var w wanOut
		if tr == nil {
			res, err := core.RunWAN(core.WANConfig{Seed: seed, Duration: wanDuration, SockBuf: c.sockBuf})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			w = wanOut{
				Bytes: res.Bytes, Elapsed: res.Elapsed, Throughput: res.Throughput,
				BottleneckDrops: res.BottleneckDrops, Retransmits: res.Retransmits,
				Timeouts: res.Timeouts, RTT: res.RTT,
			}
		} else {
			tr.begin("wan.build")
			rig, err := buildWAN(seed, c.sockBuf)
			tr.end()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			tr.begin("sim.run")
			e0 := rig.eng.Executed
			w = rig.drive()
			runEvents += rig.eng.Executed - e0
			tr.end()
			m.addEngineOf(rig.eng)
			m.addConn(rig.pair.Src.Conn, rig.pair.Dst.Conn)
			m.addHost(rig.west, rig.eng.Now())
			m.addHost(rig.east, rig.eng.Now())
			for _, n := range []*fabric.Node{rig.path.SnvGSR, rig.path.ChiT640, rig.path.Chi7609, rig.path.Gva7606} {
				m.addNode(n)
			}
			m.wanDrops += w.BottleneckDrops
		}
		w.Case = c.name
		o.simBits += 8 * float64(w.Bytes)
		outs = append(outs, w)
	}
	a := wanAnchor
	a.Sim = outs[0].Throughput.Gbps()
	o.anchors = []anchor{a}
	o.digests = func() (full, exact [32]byte, err error) {
		data, err := json.Marshal(outs)
		full = sha256.Sum256(data)
		return full, full, err
	}
	if tr != nil {
		o.layers = map[string]float64{
			"sim.ns_per_event": ratio(float64(tr.total("sim.run").Nanoseconds()), float64(runEvents)),
		}
		m.metrics(o.layers)
	}
	return o, nil
}
