package sim

import (
	"testing"

	"tengig/internal/units"
)

// TestTimerReschedule pins the in-place rearm: the event moves to the new
// time, fires exactly once there, and Reschedule on a fired or stopped
// timer reports false so callers fall back to a fresh After.
func TestTimerReschedule(t *testing.T) {
	e := NewEngine(1)
	var fired []units.Time
	tm := e.After(10, func() { fired = append(fired, e.Now()) })
	if !tm.Reschedule(25) {
		t.Fatal("Reschedule on a pending timer reported false")
	}
	e.RunUntil(15)
	if len(fired) != 0 {
		t.Fatalf("timer fired at its old deadline: %v", fired)
	}
	e.RunUntil(30)
	if len(fired) != 1 || fired[0] != 25 {
		t.Fatalf("fired = %v, want [25]", fired)
	}
	if tm.Reschedule(40) {
		t.Error("Reschedule on a fired timer reported true")
	}
	tm2 := e.After(10, func() {})
	tm2.Stop()
	if tm2.Reschedule(50) {
		t.Error("Reschedule on a stopped timer reported true")
	}
	var zero Timer
	if zero.Reschedule(60) || zero.Stop() || zero.Pending() {
		t.Error("zero-value Timer is not inert")
	}
}

// TestRescheduleEarlier moves a timer toward the present as well as away
// from it (the delayed-ack and coalescing timers rearm in both directions).
func TestRescheduleEarlier(t *testing.T) {
	e := NewEngine(1)
	var at units.Time
	tm := e.After(100, func() { at = e.Now() })
	if !tm.Reschedule(5) {
		t.Fatal("Reschedule earlier failed")
	}
	e.Run()
	if at != 5 {
		t.Fatalf("fired at %v, want 5", at)
	}
}

// TestRescheduleOrderMatchesCancelPlusSchedule proves the determinism
// contract: a Reschedule draws the same sequence number a Stop-then-After
// pair would have given the replacement event, so same-instant FIFO
// ordering is identical under either idiom.
func TestRescheduleOrderMatchesCancelPlusSchedule(t *testing.T) {
	run := func(rearm func(e *Engine, tm *Timer, at units.Time, do func()) Timer) []int {
		e := NewEngine(1)
		var order []int
		tm := e.Schedule(10, func() { order = append(order, 0) })
		// Interleave: another event lands at t=20 before the rearm...
		e.Schedule(20, func() { order = append(order, 1) })
		// ...then the timer rearms onto the same instant. FIFO says the
		// t=20 event above runs first, the rearmed timer second.
		tm = rearm(e, &tm, 20, func() { order = append(order, 0) })
		e.Schedule(20, func() { order = append(order, 2) })
		_ = tm
		e.Run()
		return order
	}
	viaStopSchedule := run(func(e *Engine, tm *Timer, at units.Time, do func()) Timer {
		tm.Stop()
		return e.Schedule(at, do)
	})
	viaReschedule := run(func(e *Engine, tm *Timer, at units.Time, do func()) Timer {
		if !tm.Reschedule(at) {
			t.Fatal("Reschedule failed")
		}
		return *tm
	})
	if len(viaStopSchedule) != len(viaReschedule) {
		t.Fatalf("lengths differ: %v vs %v", viaStopSchedule, viaReschedule)
	}
	for i := range viaStopSchedule {
		if viaStopSchedule[i] != viaReschedule[i] {
			t.Fatalf("order diverged: stop+schedule %v, reschedule %v",
				viaStopSchedule, viaReschedule)
		}
	}
}

// TestStaleTimerCannotTouchRecycledEvent is the generation-counter guard: a
// handle to a fired event must not cancel or reschedule the recycled event
// now serving an unrelated callback.
func TestStaleTimerCannotTouchRecycledEvent(t *testing.T) {
	e := NewEngine(1)
	stale := e.After(1, func() {})
	e.RunUntil(2) // fires; its event returns to the free list
	fresh := false
	e.After(10, func() { fresh = true }) // reuses the pooled event
	if stale.Stop() {
		t.Error("stale Stop reported true against a recycled event")
	}
	if stale.Pending() {
		t.Error("stale Pending reported true against a recycled event")
	}
	if stale.Reschedule(50) {
		t.Error("stale Reschedule moved a recycled event")
	}
	e.Run()
	if !fresh {
		t.Fatal("recycled event was cancelled through a stale handle")
	}
}

// TestLazyCancelAccounting checks the live-event accounting that replaces
// eager removal: Pending counts only live events, HighWater tracks the live
// population, and RunUntil's deadline peek skips dead events at the front
// of the queue instead of running past the deadline.
func TestLazyCancelAccounting(t *testing.T) {
	e := NewEngine(1)
	a := e.Schedule(10, func() {})
	e.Schedule(20, func() {})
	if e.Pending() != 2 || e.HighWater != 2 {
		t.Fatalf("pending=%d highwater=%d, want 2/2", e.Pending(), e.HighWater)
	}
	a.Stop()
	if e.Pending() != 1 {
		t.Fatalf("pending=%d after cancel, want 1", e.Pending())
	}
	// The dead event at t=10 sorts first; the peek must look through it and
	// leave the live t=20 event alone.
	e.RunUntil(15)
	if e.Executed != 0 {
		t.Fatalf("executed=%d, want 0 (live event is past the deadline)", e.Executed)
	}
	if e.Now() != 15 {
		t.Fatalf("now=%v, want 15", e.Now())
	}
	e.Run()
	if e.Executed != 1 || e.Pending() != 0 {
		t.Fatalf("executed=%d pending=%d, want 1/0", e.Executed, e.Pending())
	}
	// Cancelled events never inflate HighWater: churn far past the old mark.
	for i := 0; i < 100; i++ {
		tm := e.Schedule(e.Now()+units.Time(i+1), func() {})
		tm.Stop()
	}
	if e.HighWater != 2 {
		t.Fatalf("highwater=%d after cancel churn, want 2", e.HighWater)
	}
}

// TestKernelAllocFree is the kernel-level allocation guard: once the free
// list is primed, schedule/fire, stop, and reschedule churn must allocate
// nothing per event.
func TestKernelAllocFree(t *testing.T) {
	e := NewEngine(1)
	cb := func(any) {}
	// Prime the free list with one event.
	e.AfterCall(1, cb, nil)
	e.Run()

	if avg := testing.AllocsPerRun(1000, func() {
		e.AfterCall(1, cb, nil)
		e.Run()
	}); avg != 0 {
		t.Errorf("ScheduleCall+fire allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		tm := e.AfterCall(1, cb, nil)
		tm.Stop()
		e.Run()
	}); avg != 0 {
		t.Errorf("ScheduleCall+Stop allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		tm := e.AfterCall(1, cb, nil)
		tm.Reschedule(e.Now() + 2)
		e.Run()
	}); avg != 0 {
		t.Errorf("ScheduleCall+Reschedule allocates %.1f/op, want 0", avg)
	}
	// Server and Pipe completions ride the same free list.
	s := NewServer(e, "cpu")
	p := NewPipe(e, "wire", units.GbitPerSecond)
	if avg := testing.AllocsPerRun(1000, func() {
		s.SubmitCall(1, cb, nil)
		p.SendCall(100, cb, nil)
		e.Run()
	}); avg != 0 {
		t.Errorf("SubmitCall/SendCall allocate %.1f/op, want 0", avg)
	}
}
