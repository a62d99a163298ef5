package sim

import (
	"math/bits"

	"tengig/internal/units"
)

// wheelSched is a hierarchical timing wheel (Varghese/Lauck): a stack of
// bucket arrays over coarse slots of the engine's picosecond clock, 64
// buckets per level, each level 64x coarser than the one below. Scheduling,
// cancelling, and rescheduling are O(1); an event cascades down at most
// wheelLevels-1 times before it fires, so the total work per event is O(1)
// amortized — against the heap's O(log n) sift per operation, with n in the
// hundreds for a busy multi-flow simulation.
//
// # Slot width
//
// The wheel works in slot units: an event at time at sits in slot
// at>>wheelSlotBits, so a level-0 slot is 2^20 ps (about 1.05 µs) wide.
// The width comes from the measured schedule delay (at − now) of every
// event on the e2ebench workloads (seed 3): 86–96% are scheduled 2^15–2^28
// ps (33 ns–268 µs) ahead, most often 4.2–8.4 µs (serialization of a jumbo
// frame, a DMA burst), and WAN propagation puts up to 14% near 2^35 ps.
// With 1 ps slots an event was filed 5.2–5.6 times between push and pop
// (each cascade plus the ready-list insert); with 2^20 ps slots the typical
// event lands in level 0 directly and is filed 2.0–2.3 times. DESIGN.md
// §Scheduler has the histogram; TestWheelRefilesPerPush pins the count.
//
// # Placement
//
// The wheel tracks cur, the slot it has advanced to. An event lands at the
// level of the highest bit where its slot differs from cur — i.e. the
// coarsest level at which it is distinguishable from "now" — in the bucket
// its own bits select there:
//
//	level 0  buckets of 1 slot        next 64 slots (67 µs)
//	level 1  buckets of 64 slots      next 4096 slots (4.3 ms)
//	level l  buckets of 64^l slots    ...
//
// Within one level every occupied bucket is strictly ahead of cur's
// position, so the earliest pending event is always in the lowest occupied
// level's lowest occupied bucket (one TrailingZeros64 per level finds it).
// Advancing into a higher-level bucket re-files its events one level (or
// more) down; advancing into a level-0 bucket moves its events — all in
// exactly that slot, in insertion order — onto the ready list.
//
// # Determinism
//
// Pops must come out in ascending (at, ct, seq) order, byte-identical to
// the heap. The split at cur delivers that: every ready event sits in a
// slot <= cur and every wheel event in a slot > cur, so the whole ready
// list precedes the whole wheel; levels partition the wheel so lower levels
// strictly precede higher ones; and the ready list is kept exactly sorted
// by (at, ct, seq) — each insert (slot drain or out-of-band schedule) walks
// back from the tail to its position. The golden digests and the
// wheel-vs-heap property tests pin this.
//
// # Bounded advance and lazy cancellation
//
// peek(limit) advances the wheel only while the next candidate bucket
// begins at or before limit, so RunUntil with a near deadline never
// cascades far-future timers (and never pays to re-file them). Because the
// engine's clock may sit behind cur after such a peek (and always may sit
// inside the slot cur names), a later Schedule can target a slot the wheel
// has already reached; those events go straight onto the ready list at
// their sorted position. Cancelled (dead) events are pruned whenever a
// cascade touches them instead of riding the wheel to level 0 — RTO-style
// timers that are armed far out and almost always cancelled cost one
// insert and one prune, never a full cascade.
const (
	// wheelSlotBits is log2 of the level-0 slot width in picoseconds.
	wheelSlotBits = 20
	wheelBits     = 6
	wheelSlots    = 1 << wheelBits // 64
	wheelMask     = wheelSlots - 1
	// wheelLevels * wheelBits must cover every slot of a positive time:
	// 63 - wheelSlotBits = 43 bits, so the highest lives at level 42/6 = 7.
	wheelLevels = (63 - wheelSlotBits + wheelBits - 1) / wheelBits
)

// Values of event.idx while an event is held by the wheel: a bucket index
// (level*wheelSlots + bucket) when on the wheel proper, idxReady on the
// sorted ready list, idxNone outside any structure. (The heap uses the same
// field as its array index; an engine owns exactly one scheduler, so the
// uses never mix.)
const (
	idxNone  = -1
	idxReady = -2
)

type wheelSched struct {
	eng   *Engine
	cur   int64               // slot the wheel has advanced to (1 slot = 2^wheelSlotBits ps)
	count int                 // events held, including dead ones
	occ   [wheelLevels]uint64 // per-level bitmap of non-empty buckets
	head  [wheelLevels * wheelSlots]*event
	tail  [wheelLevels * wheelSlots]*event
	// ready holds events in slots no later than cur, sorted by (at, ct,
	// seq), next pop first. Doubly linked so Reschedule can unlink in O(1).
	rdHead, rdTail *event
	// refiles counts live events advance has moved (cascaded down a level
	// or drained onto the ready list) since construction; 1 + refiles per
	// push is how many times an event is filed on average.
	refiles uint64
}

func newWheel(eng *Engine) *wheelSched { return &wheelSched{eng: eng} }

func (w *wheelSched) len() int { return w.count }

func (w *wheelSched) push(ev *event) {
	w.count++
	w.insert(ev)
}

// insert files ev by its slot: at or behind cur onto the ready list, ahead
// of cur into the bucket its highest cur-differing bit selects.
func (w *wheelSched) insert(ev *event) {
	t := int64(ev.at) >> wheelSlotBits
	if t <= w.cur {
		w.readyInsert(ev)
		return
	}
	lvl := (63 - bits.LeadingZeros64(uint64(t^w.cur))) / wheelBits
	s := int(t>>(uint(lvl)*wheelBits)) & wheelMask
	idx := lvl*wheelSlots + s
	ev.idx = idx
	ev.next = nil
	ev.prev = w.tail[idx]
	if ev.prev == nil {
		w.head[idx] = ev
	} else {
		ev.prev.next = ev
	}
	w.tail[idx] = ev
	w.occ[lvl] |= 1 << uint(s)
}

// readyInsert links ev into the ready list at its (at, ct, seq) position,
// walking back from the tail: fresh events carry the largest seq and slot
// drains arrive nearly in time order, so the walk is usually zero or a few
// steps.
func (w *wheelSched) readyInsert(ev *event) {
	ev.idx = idxReady
	n := w.rdTail
	for n != nil && evLess(ev, n) {
		n = n.prev
	}
	ev.prev = n
	if n == nil {
		ev.next = w.rdHead
		w.rdHead = ev
	} else {
		ev.next = n.next
		n.next = ev
	}
	if ev.next == nil {
		w.rdTail = ev
	} else {
		ev.next.prev = ev
	}
}

// unlink removes ev from whichever list holds it.
func (w *wheelSched) unlink(ev *event) {
	if ev.idx == idxReady {
		if ev.prev == nil {
			w.rdHead = ev.next
		} else {
			ev.prev.next = ev.next
		}
		if ev.next == nil {
			w.rdTail = ev.prev
		} else {
			ev.next.prev = ev.prev
		}
	} else {
		idx := ev.idx
		if ev.prev == nil {
			w.head[idx] = ev.next
		} else {
			ev.prev.next = ev.next
		}
		if ev.next == nil {
			w.tail[idx] = ev.prev
		} else {
			ev.next.prev = ev.prev
		}
		if w.head[idx] == nil {
			w.occ[idx/wheelSlots] &^= 1 << uint(idx&wheelMask)
		}
	}
	ev.prev, ev.next = nil, nil
	ev.idx = idxNone
}

func (w *wheelSched) update(ev *event) {
	w.unlink(ev)
	w.insert(ev)
}

func (w *wheelSched) peek(limit units.Time) *event {
	for {
		if ev := w.rdHead; ev != nil {
			if ev.at > limit {
				return nil
			}
			return ev
		}
		if w.count == 0 || !w.advance(limit) {
			return nil
		}
	}
}

// advance moves the wheel one step toward its earliest event: it locates
// the lowest occupied bucket of the lowest occupied level, and — provided
// that bucket starts at or before limit — empties it, re-filing live events
// one or more levels down (level 0 drains onto the ready list) and pruning
// dead ones. It reports whether it advanced.
func (w *wheelSched) advance(limit units.Time) bool {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		o := w.occ[lvl]
		if o == 0 {
			continue
		}
		s := bits.TrailingZeros64(o)
		shift := uint(lvl) * wheelBits
		// First slot the bucket covers. For the top level the mask spans
		// every slot bit, clearing cur entirely — exactly the whole-space
		// window the top level spans.
		window := uint64(w.cur) &^ (uint64(1)<<(shift+wheelBits) - 1)
		start := int64(window | uint64(s)<<shift)
		// Compare in picoseconds: start<<wheelSlotBits is the earliest
		// time the bucket can hold, so a bounded peek never drains a
		// bucket that lies wholly beyond limit.
		if units.Time(start<<wheelSlotBits) > limit {
			return false
		}
		idx := lvl*wheelSlots + s
		ev := w.head[idx]
		w.head[idx], w.tail[idx] = nil, nil
		w.occ[lvl] &^= 1 << uint(s)
		if start > w.cur {
			w.cur = start
		}
		for ev != nil {
			next := ev.next
			ev.prev, ev.next = nil, nil
			ev.idx = idxNone
			if ev.dead() {
				// Prune cancelled timers at first touch instead of
				// cascading them to level 0.
				w.count--
				w.eng.recycle(ev)
			} else {
				w.refiles++
				w.insert(ev)
			}
			ev = next
		}
		return true
	}
	return false
}

func (w *wheelSched) pop() *event {
	ev := w.rdHead
	if ev == nil {
		if w.peek(maxTime) == nil {
			return nil
		}
		ev = w.rdHead
	}
	w.rdHead = ev.next
	if ev.next == nil {
		w.rdTail = nil
	} else {
		ev.next.prev = nil
	}
	ev.prev, ev.next = nil, nil
	ev.idx = idxNone
	w.count--
	return ev
}

func (w *wheelSched) drain(f func(*event)) {
	for ev := w.rdHead; ev != nil; {
		next := ev.next
		ev.prev, ev.next = nil, nil
		ev.idx = idxNone
		f(ev)
		ev = next
	}
	w.rdHead, w.rdTail = nil, nil
	for lvl := range w.occ {
		for o := w.occ[lvl]; o != 0; o &= o - 1 {
			idx := lvl*wheelSlots + bits.TrailingZeros64(o)
			for ev := w.head[idx]; ev != nil; {
				next := ev.next
				ev.prev, ev.next = nil, nil
				ev.idx = idxNone
				f(ev)
				ev = next
			}
			w.head[idx], w.tail[idx] = nil, nil
		}
		w.occ[lvl] = 0
	}
	w.count = 0
}

// reset discards anything still held and rewinds the wheel to slot zero.
// The bucket arrays are fixed-size fields, so a reset engine reuses them
// as-is — that is the point of Engine.Reset.
func (w *wheelSched) reset() {
	w.drain(func(*event) {})
	w.cur = 0
}
