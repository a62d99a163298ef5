package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"tengig/internal/netem"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// The generated fabric is the shipped 16-switch torus-grid shape: a 4x4
// wrap-around grid of switches, one 10GbE host per switch, with trunks of
// about 26 us. The seed varies only what a user of the fabric would vary:
// which hosts talk, their write sizes, and which trunks are lossy. It varies
// them under fixed totals (every host sends and receives the same number of
// flows; each write size is used by the same number of flows) so that every
// seed asks for about the same amount of work.
const (
	gridSide       = 4
	fabricFlows    = 32
	flowBytes      = 4 << 20 // per flow, so every flow moves about the same data
	lossyTrunks    = 8
	trunkLossProb  = 0.001
	hostLinkPropNS = 24500
	trunkPropNS    = 26000
	trunkQueueKB   = 2048
	switchLatency  = 1200
	switchGbps     = 160
)

// fabricPayloads are the write sizes, each used by an equal share of the
// flows: a standard-frame MSS, a page, and a jumbo-frame MSS.
var fabricPayloads = []int{1448, 4096, 8948}

// The lossy trunks drop packets between lossStart and lossEnd. The window
// opens after the compile horizon (every handshake is done by about 12.6 ms),
// so sharded runs keep sparse replicas, and closes before the first flow
// finishes (about 27 ms at the earliest), so losses hit flows mid-transfer
// where fast retransmit repairs them. A loss in a flow's last few segments
// would instead wait out a retransmission timeout, stretching the run's
// simulated time, and with it the telemetry export, several-fold for that
// one seed.
const (
	lossStart = 18 * units.Millisecond
	lossEnd   = 24 * units.Millisecond
)

func gridName(r, c int) string { return fmt.Sprintf("g%d%d", r, c) }

// genFabric builds the seed's fabric spec. The same seed always yields the
// same spec.
func genFabric(seed int64) *topo.Spec {
	rng := rand.New(rand.NewSource(seed))
	s := &topo.Spec{
		Name: fmt.Sprintf("torus-grid-s%d", seed),
		Tuning: &topo.TuningSpec{
			MTU: 9000, MMRBC: 4096, Uniprocessor: true, SockBuf: 256 * 1024,
		},
	}
	for r := 0; r < gridSide; r++ {
		for c := 0; c < gridSide; c++ {
			g := gridName(r, c)
			s.Hosts = append(s.Hosts, topo.HostSpec{Name: "h-" + g, NIC: topo.NIC10G})
			s.Switches = append(s.Switches, topo.SwitchSpec{
				Name: g, LatencyNS: switchLatency, BackplaneGbps: switchGbps,
			})
		}
	}
	for i, h := range s.Hosts {
		s.Links = append(s.Links, topo.LinkSpec{
			A: h.Name, B: s.Switches[i].Name, PropNS: float64(hostLinkPropNS + 10*i),
		})
	}
	var trunks []int
	addTrunk := func(kind, a, b string) {
		trunks = append(trunks, len(s.Links))
		s.Links = append(s.Links, topo.LinkSpec{
			Name: fmt.Sprintf("%s-%s-%s", kind, a, b), A: a, B: b,
			PropNS: float64(trunkPropNS + 37*len(trunks)), QueueKB: trunkQueueKB,
		})
	}
	for r := 0; r < gridSide; r++ {
		for c := 0; c < gridSide; c++ {
			addTrunk("row", gridName(r, c), gridName(r, (c+1)%gridSide))
		}
	}
	for c := 0; c < gridSide; c++ {
		for r := 0; r < gridSide; r++ {
			addTrunk("col", gridName(r, c), gridName((r+1)%gridSide, c))
		}
	}
	for _, i := range rng.Perm(len(trunks))[:lossyTrunks] {
		script := netem.Script{
			{At: lossStart, Fault: netem.Fault{LossProb: trunkLossProb}},
			{At: lossEnd},
		}
		f := &topo.LinkFaults{AtoB: script}
		if rng.Intn(2) == 0 {
			f = &topo.LinkFaults{BtoA: script}
		}
		s.Links[trunks[i]].Faults = f
	}
	n := len(s.Hosts)
	payloads := make([]int, fabricFlows)
	for i := range payloads {
		payloads[i] = fabricPayloads[i%len(fabricPayloads)]
	}
	rng.Shuffle(len(payloads), func(i, j int) { payloads[i], payloads[j] = payloads[j], payloads[i] })
	for round := 0; round < fabricFlows/n; round++ {
		dst := derangement(rng, n)
		for src := 0; src < n; src++ {
			payload := payloads[len(s.Flows)]
			s.Flows = append(s.Flows, topo.FlowSpec{
				Src: s.Hosts[src].Name, Dst: s.Hosts[dst[src]].Name,
				Count: flowBytes / payload, Payload: payload,
			})
		}
	}
	return s
}

// derangement is a random permutation of 0..n-1 that moves every element,
// so no host sends to itself.
func derangement(rng *rand.Rand, n int) []int {
	for {
		p := rng.Perm(n)
		fixed := false
		for i, v := range p {
			fixed = fixed || i == v
		}
		if !fixed {
			return p
		}
	}
}

// genFabricJSON is genFabric in the form the program receives: the JSON
// topology document `sweep -topology` reads.
func genFabricJSON(seed int64) ([]byte, error) {
	return json.Marshal(genFabric(seed))
}
