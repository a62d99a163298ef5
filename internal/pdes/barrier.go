package pdes

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spinBarrier is a sense-reversing barrier for a fixed set of shard
// goroutines. One phase costs each waiter a handful of atomic loads and the
// last arriver one atomic store. The last arriver runs the coordinator's
// serial section while its peers wait, then flips the shared sense to
// release them; Go's atomics give the release acquire/release semantics, so
// the serial section may freely touch every shard's engine and state.
//
// Waiters descend a spin/park ladder: a tight atomic-load loop first (the
// common case on parallel hardware, where the phase flips within
// microseconds), then yielding spins (runtime.Gosched, so an oversubscribed
// scheduler can run the arriving shards), and finally a real park on a
// condition variable — which keeps 1-CPU hosts live instead of burning whole
// scheduler quanta spinning at a barrier only another goroutine can flip.
// The releaser flips the sense and broadcasts under the mutex, and a parked
// waiter re-checks the sense under it before every Wait, so a wake-up can
// neither be missed nor carry over into a later phase.
type spinBarrier struct {
	n       int32
	arrived atomic.Int32
	sense   atomic.Uint32
	// tight and yield are the two spinning rungs' iteration budgets.
	tight, yield int
	mu           sync.Mutex
	flipped      *sync.Cond // signalled on every sense flip; L is &mu
}

// tightSpins picks the tight-spin rung budget for the host: with fewer CPUs
// than shards a waiter's spinning only delays the arrivals it waits for, so
// park almost immediately.
func tightSpins(shards int) int {
	if runtime.GOMAXPROCS(0) < shards {
		return 0
	}
	return 1 << 14
}

func newSpinBarrier(n, tight, yield int) *spinBarrier {
	b := &spinBarrier{n: int32(n), tight: tight, yield: yield}
	b.flipped = sync.NewCond(&b.mu)
	return b
}

// arrive enters the barrier. The last arriver runs serial (exclusively —
// every peer is stopped at the barrier), flips the sense, and wakes parked
// peers; the rest wait for the flip.
func (b *spinBarrier) arrive(serial func()) {
	s := b.sense.Load()
	if b.arrived.Add(1) == b.n {
		b.arrived.Store(0)
		serial()
		b.mu.Lock()
		b.sense.Store(s ^ 1)
		b.flipped.Broadcast()
		b.mu.Unlock()
		return
	}
	for spins := 0; b.sense.Load() == s; spins++ {
		if spins < b.tight {
			continue
		}
		if spins < b.tight+b.yield {
			runtime.Gosched()
			continue
		}
		// The sense cannot flip twice while we wait: the next phase needs
		// our own arrival. So "sense still s" under the mutex means the
		// release has not happened, and the releaser's Broadcast, issued
		// under the same mutex, is still ahead of us.
		b.mu.Lock()
		for b.sense.Load() == s {
			b.flipped.Wait()
		}
		b.mu.Unlock()
		return
	}
}
