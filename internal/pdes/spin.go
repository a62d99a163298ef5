package pdes

import (
	"fmt"
	"runtime/debug"
	"time"

	"tengig/internal/runner"
	"tengig/internal/units"
)

// The window driver. The shards synchronize among themselves: each runs its
// window slice, arrives at the sense-reversing barrier, and the last arriver
// executes the coordinator's serial section in-line — absorbing outboxes,
// picking the next window, routing inboxes into the preallocated per-shard
// slots — before one atomic sense flip releases everyone into the next
// window. Run only publishes the first action, opens the start gate, and
// collects the shards' final reports once a terminal action is published.
//
// Memory ordering: a shard's window work happens-before its barrier arrival
// (atomic add); the serial section runs after every arrival and its writes
// happen-before the sense flip (atomic store) that each shard observes
// before reading the published action — so the serial section may touch
// every shard's engine and state without locks, race-detector-clean.
type spinState struct {
	r      *Runner
	bar    *spinBarrier
	c      *coord
	states []*shardState // states[i] registered by shard i during setup

	// cur is the published action for the upcoming phase: written by the
	// serial section (or by Run before the start gate opens), read by every
	// shard after the sense flip.
	cur action
	// nextAt/hasNext/beyond are the serial section's scratch report slots.
	nextAt  []units.Time
	hasNext []bool
	beyond  []bool

	start chan struct{} // closed by Run once cur holds the first action

	// errs[i] is shard i's window panic, written before its arrival so the
	// serial section sees it in the same phase.
	errs []error
}

func newSpinState(r *Runner) *spinState {
	n := r.plan.Shards
	return &spinState{
		r:       r,
		bar:     newSpinBarrier(n, tightSpins(n), 1<<7),
		states:  make([]*shardState, n),
		nextAt:  make([]units.Time, n),
		hasNext: make([]bool, n),
		beyond:  make([]bool, n),
		start:   make(chan struct{}),
		errs:    make([]error, n),
	}
}

// spinLoop is a shard's life between setup and its final report: run the
// published window, arrive, repeat until a terminal action. A panicking
// shard records its error and keeps arriving as a zombie — the barrier
// needs every participant — until the serial section publishes the terminal
// actError; the returned error then becomes the shard's final report. Wait
// time at the barrier accrues to st.syncWall.
func (r *Runner) spinLoop(idx int, st *shardState, sp *spinState) error {
	<-sp.start
	for {
		act := sp.cur
		if act.kind != actWindow {
			return sp.errs[idx]
		}
		if sp.errs[idx] == nil {
			sp.errs[idx] = r.windowRecovered(idx, st, act.wEnd, sp.c.inboxes[idx])
		}
		t := time.Now()
		sp.bar.arrive(sp.serial)
		st.syncWall += time.Since(t)
	}
}

// windowRecovered runs one window slice with panic containment.
func (r *Runner) windowRecovered(idx int, st *shardState, wEnd units.Time, inbox []crossMsg) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = r.shardPanic(idx, v)
		}
	}()
	st.runWindow(r.engines[idx], wEnd, inbox)
	return nil
}

// serial is the barrier's serial section: the coordinator step, run by the
// last arriver of each phase while every other shard is stopped at the
// barrier. It publishes the next action in sp.cur.
func (sp *spinState) serial() {
	defer func() {
		if v := recover(); v != nil {
			sp.cur = action{kind: actError, err: &runner.PanicError{
				Index: -1,
				Label: fmt.Sprintf("pdes coordinator of %s", sp.r.spec.Name),
				Value: v,
				Stack: debug.Stack(),
			}}
		}
	}()
	// A shard panic ends the run before anything of the broken shard is
	// absorbed; the lowest failing shard is reported.
	for _, err := range sp.errs {
		if err != nil {
			sp.cur = action{kind: actError, err: err}
			return
		}
	}
	c := sp.c
	for i, st := range sp.states {
		c.absorb(i, st.out, st.newlyDone)
	}
	for i, eng := range sp.r.engines {
		at, ok := eng.NextEventAtWithin(c.horizon)
		sp.nextAt[i], sp.hasNext[i] = at, ok
		sp.beyond[i] = !ok && eng.Pending() > 0
	}
	act := c.step(sp.nextAt, sp.hasNext, sp.beyond)
	if act.kind == actProbe {
		// Engines are idle at the barrier: resolve the probe in place with
		// exact peeks instead of another round.
		for i, eng := range sp.r.engines {
			sp.nextAt[i], sp.hasNext[i] = eng.NextEventAt()
		}
		act = c.probeResolve(sp.nextAt, sp.hasNext)
	}
	sp.cur = act
}
