package sim

import (
	"math"
	"testing"

	"tengig/internal/units"
)

// TestWheelRefilesPerPush pins how often the wheel re-files an event
// between push and pop. The delay stream is shaped like the measured
// traffic of the benchmark campaigns: log-uniform over 2^16–2^28 ps (65 ns
// to 268 µs: serialization, DMA, coalescing and ACK timers), plus 5% near
// 2^35 ps (34 ms WAN propagation). Every event re-arms its chain until the
// push budget is spent, so the live population stays at the chain count.
// The count is deterministic, so a placement change that re-files more —
// narrower level-0 slots, a cascade that moves events one level too few —
// fails exactly, the way the allocs/op guards do.
func TestWheelRefilesPerPush(t *testing.T) {
	const (
		chains = 512
		pushes = 200000
		// bound sits just above this stream's figure with 2^20 ps
		// level-0 slots (1.153); 2^18 ps slots give 1.483 and the
		// former 1 ps slots 4.436.
		bound = 1.20
	)
	e := NewEngineWith(1, SchedWheel)
	w := e.sched.(*wheelSched)
	rng := e.Rand()
	delay := func() units.Time {
		if rng.Intn(20) == 0 {
			return 1<<35 + units.Time(rng.Int63n(1<<30))
		}
		return units.Time(math.Exp2(16 + 12*rng.Float64()))
	}
	n := 0
	var fire func()
	fire = func() {
		if n < pushes {
			n++
			e.After(delay(), fire)
		}
	}
	for i := 0; i < chains; i++ {
		n++
		e.After(delay(), fire)
	}
	e.Run()
	if e.Executed != pushes {
		t.Fatalf("executed %d events, want %d", e.Executed, pushes)
	}
	per := float64(w.refiles) / pushes
	t.Logf("%d pushes, %d re-files: %.3f re-files per push (%.3f filings per event)", pushes, w.refiles, per, 1+per)
	if per > bound {
		t.Errorf("%.3f re-files per push, want at most %.2f", per, bound)
	}
}
