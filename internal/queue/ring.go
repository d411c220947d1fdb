package queue

// Lock-free bounded MPMC ring for the volatile fast path.
//
// The ring is a two-level structure in the spirit of the memory-optimal
// segment-queue designs (PAPERS.md): a fixed array of ringMaxSegs segment
// pointers, each segment holding ringSegSlots slots, for a total capacity
// of ringCap elements. Segments are allocated lazily on first touch and
// then recycled in place forever — they are never unlinked, so there is
// no reclamation problem and no ABA hazard from reuse: a slot's sequence
// number strictly increases across cycles and uniquely identifies which
// logical position currently owns it.
//
// Protocol (Vyukov-style per-slot sequencing, global CAS cursors):
//
//   - Positions are unbounded uint64s. Position p maps to segment
//     (p/ringSegSlots)%ringMaxSegs, slot p%ringSegSlots.
//   - A slot with seq == p is free for the producer of position p.
//     The producer claims p by CASing the global enq cursor p→p+1 (the
//     linearization point), copies the element in, then publishes with
//     seq.Store(p+1).
//   - A consumer at position p waits for seq == p+1, claims p by CASing
//     deq p→p+1, copies the element out, clears the slot, and releases it
//     to the next cycle with seq.Store(p+ringCap).
//   - A producer that finds seq < p while enq still reads p has lapped a
//     slow consumer (ring full): it reports failure and the caller falls
//     back to the locked path.
//
// All cross-goroutine element transfers are ordered by the seq atomics:
// the producer's seq.Store(p+1) release-publishes the element write, and
// the consumer's seq load acquires it before the copy-out (and vice versa
// for the slot clear and the next cycle's producer).
//
// The ring by itself is only a queue of Elements; queueState layers the
// drain-and-seal handoff protocol on top (see shard.go) so transactional,
// prioritized, filtered and blocking consumers — which need the locked
// lists — never interleave unsafely with ring traffic.

import (
	"sync/atomic"
	"time"
)

const (
	// ringSegSlots is the number of element slots per segment. One segment
	// is ~ringSegSlots * sizeof(rslot) bytes (Element is pointer-heavy, so
	// roughly 160 B/slot → ~20 KB/segment), small enough that the lazy
	// first-cycle allocation is cheap and idle eligible queues cost nothing.
	ringSegSlots = 128

	// ringMaxSegs bounds resident memory per queue at ringMaxSegs segments;
	// segments are recycled in place, never freed, so this is also the
	// steady-state footprint once a queue has seen ringCap elements.
	ringMaxSegs = 8

	// ringCap is the total bounded capacity. A 1024-element burst cushion
	// before falling back to the locked path matches the depth regime the
	// contention benches exercise; deeper backlogs take the locked path,
	// which is the right place for them anyway (alerting, MaxDepth, stats).
	ringCap = ringSegSlots * ringMaxSegs

	// ringFullYields is how many times a producer finding the ring full
	// backs off before giving up and taking the locked fallback. On
	// few-core boxes a "full" ring is usually a consumer one quantum
	// behind; backing off is far cheaper than seal-drain-reopen.
	ringFullYields = 64

	// ringSpinYields is the cooperative-yield budget within that: the
	// first attempts use runtime.Gosched, which is nearly free when the
	// consumer is on the same P (the GOMAXPROCS=1 regime). When that many
	// yields fail to free a slot, the consumer is NOT reachable by
	// cooperative yielding — on an oversubscribed host (GOMAXPROCS >
	// physical cores) it sits on another P's run queue that this M never
	// steals from under Gosched, and the producer spins its whole OS
	// quantum in lockstep. The remaining attempts park on a timer
	// (ringYieldSleep) instead, which deschedules the M and lets the
	// consumer drain a long stretch of the ring rather than one slot.
	ringSpinYields = 8

	// ringYieldSleep is the timer-park used after the spin budget. At 20µs
	// a draining consumer (~200ns/op) frees ~100 slots per park, so a
	// handful of parks beats one seal-drain-reopen; the worst case before
	// the locked fallback is ~1.1ms, acceptable for the only case that
	// reaches it — a consumer that is genuinely absent, for which the
	// locked path (parking, MaxDepth, alerting) is the right home anyway.
	ringYieldSleep = 20 * time.Microsecond
)

// ringStatus is the outcome of a pop attempt.
type ringStatus int

const (
	// ringOK: an element was dequeued into *out.
	ringOK ringStatus = iota
	// ringEmpty: the ring was observed empty (enq == deq) — with the seal
	// invariant (fast mode ⇒ locked lists empty) this means queue-empty.
	ringEmpty
	// ringInflight: a producer has claimed a position but not yet
	// published the element. The caller should yield and retry; it must
	// NOT report empty, because the enqueue already linearized.
	ringInflight
)

// rslot is one element cell. seq carries both the handshake state and the
// cycle (see protocol above); el is written only by the slot's current
// owner, ordered by seq.
type rslot struct {
	seq atomic.Uint64
	el  Element
}

// rseg is one lazily-allocated, in-place-recycled segment.
type rseg struct {
	slots [ringSegSlots]rslot
}

// ring is the bounded MPMC queue. Zero value is NOT usable; use newRing.
type ring struct {
	enq  atomic.Uint64 // next position to enqueue
	deq  atomic.Uint64 // next position to dequeue
	segs [ringMaxSegs]atomic.Pointer[rseg]
}

func newRing() *ring {
	return &ring{}
}

// segFor returns the segment for position pos, allocating it on first
// touch. Lazy allocation is only ever needed in cycle 0 (positions advance
// sequentially, so segment i is first touched at position i*ringSegSlots),
// which is why initializing slot j of segment i with seq = i*ringSegSlots+j
// is always correct. CAS losers let their allocation be collected.
func (r *ring) segFor(pos uint64) *rseg {
	i := (pos / ringSegSlots) % ringMaxSegs
	if seg := r.segs[i].Load(); seg != nil {
		return seg
	}
	seg := new(rseg)
	base := i * ringSegSlots
	for j := range seg.slots {
		seg.slots[j].seq.Store(base + uint64(j))
	}
	if r.segs[i].CompareAndSwap(nil, seg) {
		return seg
	}
	return r.segs[i].Load()
}

// push enqueues *e, returning false if the ring is full (a producer lapped
// a slow consumer). On success the element has been copied; the caller's
// copy may be reused.
func (r *ring) push(e *Element) bool {
	for {
		pos := r.enq.Load()
		seg := r.segFor(pos)
		s := &seg.slots[pos%ringSegSlots]
		seq := s.seq.Load()
		if seq != pos {
			if r.enq.Load() != pos {
				continue // raced with another producer; re-read cursor
			}
			// seq < pos: the slot still belongs to a previous cycle's
			// consumer — we have wrapped all the way around. Full.
			return false
		}
		if !r.enq.CompareAndSwap(pos, pos+1) {
			continue
		}
		s.el = *e
		s.seq.Store(pos + 1) // release: publish element to consumer
		return true
	}
}

// pop dequeues into *out. See ringStatus for the three outcomes.
func (r *ring) pop(out *Element) ringStatus {
	for {
		pos := r.deq.Load()
		i := (pos / ringSegSlots) % ringMaxSegs
		seg := r.segs[i].Load()
		if seg == nil {
			// Segment never touched ⇒ no producer has reached pos yet.
			if r.enq.Load() == pos {
				return ringEmpty
			}
			continue
		}
		s := &seg.slots[pos%ringSegSlots]
		seq := s.seq.Load() // acquire: pairs with producer's publish
		switch {
		case seq == pos+1:
			if !r.deq.CompareAndSwap(pos, pos+1) {
				continue
			}
			*out = s.el
			s.el = Element{}           // drop references for GC
			s.seq.Store(pos + ringCap) // release slot to next cycle
			return ringOK
		case seq <= pos:
			// Slot not yet published for this position.
			if r.enq.Load() == pos {
				return ringEmpty
			}
			// An enqueue linearized (enq > deq) but its element is not
			// visible yet — in-flight producer between CAS and publish.
			return ringInflight
		default:
			// seq > pos+1: another consumer already took pos; re-read.
			continue
		}
	}
}

// len reports an instantaneous (racy) element count, for stats merging.
func (r *ring) len() int {
	e, d := r.enq.Load(), r.deq.Load()
	if e <= d {
		return 0
	}
	return int(e - d)
}
