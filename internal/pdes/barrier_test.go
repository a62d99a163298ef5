package pdes

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestSpinBarrier drives the barrier alone with both spinning rungs off, so
// every waiter parks on every phase — the rung that keeps 1-CPU hosts live —
// at GOMAXPROCS 1 and 2. The serial section checks that every participant
// finished the phase's work and none has started the next one; plain
// (non-atomic) bookkeeping lets the race detector check the barrier's
// happens-before edges too. A stuck phase fails the test at a deadline
// instead of hanging it.
func TestSpinBarrier(t *testing.T) {
	phases := 100_000
	if testing.Short() {
		phases = 10_000
	}
	for _, procs := range []int{1, 2} {
		for _, n := range []int{2, 4} {
			t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				b := newSpinBarrier(n, 0, 0)
				started := make([]int, n)
				finished := make([]int, n)
				phase := 0
				var bad error
				serial := func() {
					for i := 0; i < n && bad == nil; i++ {
						if started[i] != phase || finished[i] != phase {
							bad = fmt.Errorf("phase %d: participant %d started %d, finished %d",
								phase, i, started[i], finished[i])
						}
					}
					phase++
				}
				done := make(chan struct{}, n)
				for id := 0; id < n; id++ {
					go func(id int) {
						for p := 0; p < phases; p++ {
							started[id] = p
							finished[id] = p
							b.arrive(serial)
						}
						done <- struct{}{}
					}(id)
				}
				deadline := time.After(2 * time.Minute)
				for i := 0; i < n; i++ {
					select {
					case <-done:
					case <-deadline:
						t.Fatalf("barrier stuck: %d of %d participants finished %d phases", i, n, phases)
					}
				}
				if bad != nil {
					t.Fatal(bad)
				}
				if phase != phases {
					t.Fatalf("serial section ran %d times for %d phases", phase, phases)
				}
			})
		}
	}
}
