package queue

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Concurrency control is striped per queue (see DESIGN.md §8). The lock
// order, outermost first, is:
//
//	r.mu (RWMutex over the queue map) → queueState.mu (two shards in
//	ascending name order) → elemTable stripe → regMu / trigMu / kvMu /
//	setWaiter.mu → alertMu
//
// The WAL is never appended to — and redo records are never staged —
// while a shard lock is held; transactions stage records after the shard
// critical section and the commit path orders them. r.mu is never
// acquired while holding a shard lock (an RWMutex blocks new readers
// once a writer waits, so shard→repo would deadlock against DDL).

// queueState is one queue's in-memory structure — per-priority FIFO
// lists — plus its own latch and condition variable, so operations on
// disjoint queues never serialize and a visibility change wakes only
// this queue's waiters.
type queueState struct {
	name     string // immutable copy of cfg.Name (lock-free reads)
	volatile bool   // immutable copy of cfg.Volatile (lock-free reads)

	mu   sync.Mutex
	cond *sync.Cond // signaled on this queue's visibility changes
	// setWaiters are DequeueSet waiters subscribed to this queue; a
	// commit here fires only the sets that include this queue.
	setWaiters map[*setWaiter]struct{}
	dead       bool // destroyed; parked callers must re-resolve by name

	// errEmpty is the queue's pre-wrapped ErrEmpty, built once so the
	// non-blocking dequeue poll loop doesn't pay fmt.Errorf per miss.
	errEmpty error

	cfg     QueueConfig // writes hold r.mu (W) AND mu; reads hold either
	lists   map[int32]*elemList
	prios   []int32 // sorted descending
	stopped bool    // writes hold r.mu (W) AND mu; reads hold either
	stats   QueueStats
	m       qmetrics

	// nwait counts dequeuers parked on cond (guarded by mu). The fast
	// path must stay sealed while anyone is parked, because ring enqueues
	// do not signal cond.
	nwait int

	// mShardWait is the repository's shard-lock contention histogram
	// (shared across queues; see lock()).
	mShardWait *obs.Histogram

	// --- lock-free volatile fast path (see ring.go and DESIGN.md §10) ---
	//
	// ring is non-nil iff the queue's config is ring-eligible (volatile,
	// non-strict-FIFO, unlimited depth, no alerts/redirect). fastMode
	// gates whether auto-commit unfiltered ops may use it; when true the
	// locked lists are empty, so ring-empty ⇒ queue-empty. Any operation
	// that needs the locked lists seals first (sealFastLocked): flips
	// fastMode off, waits out the fastOps in-flight gate, and drains ring
	// contents into the lists under mu. fastMode is re-enabled only at
	// quiescence (maybeReopenFastLocked).
	ring     *ring
	fastMode atomic.Bool
	fastOps  atomic.Int64 // in-flight ring ops (enter/exit gate)

	// Fast-path op accounting, merged into stats by Repository.Stats:
	// fastEnqs/fastDeqs count ring pushes/pops; fastDrained counts
	// elements moved ring→lists by seals (they re-enter locked Depth, so
	// the merge subtracts them from the fast-resident count).
	fastEnqs    atomic.Uint64
	fastDeqs    atomic.Uint64
	fastDrained atomic.Uint64

	// elems is the repository's eid index (fast enqueues don't register
	// there; sealing does — see sealFastLocked and drainFastResident).
	elems *elemTable
}

// ringEligible reports whether a config permits the lock-free fast path
// at all: volatile (never logged), no strict-FIFO blocking semantics, no
// depth limit or alert threshold to enforce per-op, and not a redirect
// source. Per-op gates (txn, priority, filters, waiters, triggers) are
// checked at the call sites in ops.go.
func ringEligible(cfg *QueueConfig) bool {
	return cfg.Volatile && !cfg.StrictFIFO && cfg.MaxDepth == 0 &&
		cfg.AlertThreshold == 0 && cfg.RedirectTo == ""
}

// enterFast joins the fast-path in-flight gate. On true the caller may
// operate on q.ring and must call exitFast when done; on false the queue
// is sealed (or sealing) and the caller must take the locked path. The
// re-check after the increment closes the race with a concurrent sealer:
// either the sealer sees our increment and waits, or we see its flip and
// back out.
func (q *queueState) enterFast() bool {
	if !q.fastMode.Load() {
		return false
	}
	q.fastOps.Add(1)
	if !q.fastMode.Load() {
		q.fastOps.Add(-1)
		return false
	}
	return true
}

func (q *queueState) exitFast() { q.fastOps.Add(-1) }

// sealFastLocked transitions the queue to locked mode: no new ring ops
// can start, in-flight ones are waited out, and ring contents are drained
// into the locked lists (registering each element in the eid index) so the
// caller sees the complete queue. Caller holds q.mu. Idempotent; cheap
// when already sealed or never opened.
func (q *queueState) sealFastLocked() {
	if q.ring == nil || !q.fastMode.Load() {
		return
	}
	q.fastMode.Store(false)
	for q.fastOps.Load() != 0 {
		runtime.Gosched()
	}
	var e Element
	for {
		switch q.ring.pop(&e) {
		case ringOK:
			el := &elem{state: stateVisible}
			el.fill(&e, true) // the ring's copy was the producer's clone
			el.q.Store(q)
			q.insert(el)
			q.elems.put(el.eid, el)
			// The enqueue was already counted (fastEnqs, m.depth); only
			// the locked-side Depth moves here, and fastDrained keeps the
			// Stats merge from counting the element twice.
			q.stats.Depth++
			q.fastDrained.Add(1)
		case ringEmpty:
			if q.stats.Depth > q.stats.MaxDepth {
				q.stats.MaxDepth = q.stats.Depth
			}
			return
		case ringInflight:
			// Unreachable after the gate drained, but harmless: yield and
			// re-pop rather than risk dropping a published element.
			runtime.Gosched()
		}
	}
}

// maybeReopenFastLocked re-enables the fast path when the queue is fully
// quiescent: configured eligible, alive, started, no parked dequeuers or
// set waiters (ring enqueues don't signal cond), and no live elements in
// the locked lists (preserving the fastMode ⇒ lists-empty invariant).
// Caller holds q.mu.
func (q *queueState) maybeReopenFastLocked() {
	if q.ring == nil || q.fastMode.Load() || q.dead || q.stopped {
		return
	}
	if q.nwait != 0 || len(q.setWaiters) != 0 {
		return
	}
	if !ringEligible(&q.cfg) || q.live() != 0 {
		return
	}
	q.fastMode.Store(true)
}

// lock acquires the shard latch, observing the wait only when contended
// (TryLock first keeps the uncontended fast path free of clock reads).
func (q *queueState) lock() {
	if q.mu.TryLock() {
		return
	}
	t0 := time.Now()
	q.mu.Lock()
	q.mShardWait.Observe(time.Since(t0).Nanoseconds())
}

func (q *queueState) unlock() { q.mu.Unlock() }

// notifyLocked wakes this queue's parked dequeuers and any queue-set
// waiters subscribed to it. Caller holds q.mu.
func (q *queueState) notifyLocked() {
	q.cond.Broadcast()
	for sw := range q.setWaiters {
		sw.fire()
	}
}

// lockPair locks one or two shards in ascending name order — the
// repository-wide two-shard order (error-queue diversion, abort-return
// replay). b may be nil or equal to a.
func lockPair(a, b *queueState) {
	if b == nil || b == a {
		a.lock()
		return
	}
	if b.name < a.name {
		a, b = b, a
	}
	a.lock()
	b.lock()
}

func unlockPair(a, b *queueState) {
	a.unlock()
	if b != nil && b != a {
		b.unlock()
	}
}

// setWaiter is a DequeueSet's wakeup token, registered on every member
// queue so that a commit on any one of them wakes the set — and nothing
// else does. fire is safe to call with shard locks held (setWaiter.mu is
// a leaf); wait is called with no locks held.
type setWaiter struct {
	mu    sync.Mutex
	cond  *sync.Cond
	fired bool
}

func newSetWaiter() *setWaiter {
	w := &setWaiter{}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func (w *setWaiter) fire() {
	w.mu.Lock()
	w.fired = true
	w.cond.Signal()
	w.mu.Unlock()
}

// wait parks until the next fire. A fire that lands before wait is not
// lost: the fired flag stays set until consumed here.
func (w *setWaiter) wait() {
	w.mu.Lock()
	for !w.fired {
		w.cond.Wait()
	}
	w.fired = false
	w.mu.Unlock()
}

// elemTable is the eid → element index, striped so eid-addressed reads
// (Read, KillElement) and hot-path insert/delete don't share one lock.
const elemStripes = 64

type elemTable struct {
	stripes [elemStripes]elemStripe
}

type elemStripe struct {
	mu sync.Mutex
	m  map[EID]*elem
}

func newElemTable() *elemTable {
	t := &elemTable{}
	for i := range t.stripes {
		t.stripes[i].m = make(map[EID]*elem)
	}
	return t
}

func (t *elemTable) stripe(eid EID) *elemStripe {
	return &t.stripes[uint64(eid)%elemStripes]
}

func (t *elemTable) put(eid EID, el *elem) {
	s := t.stripe(eid)
	s.mu.Lock()
	s.m[eid] = el
	s.mu.Unlock()
}

func (t *elemTable) get(eid EID) (*elem, bool) {
	s := t.stripe(eid)
	s.mu.Lock()
	el, ok := s.m[eid]
	s.mu.Unlock()
	return el, ok
}

func (t *elemTable) del(eid EID) {
	s := t.stripe(eid)
	s.mu.Lock()
	delete(s.m, eid)
	s.mu.Unlock()
}

// lockElem locks the shard currently holding el, revalidating after each
// acquisition: an abort-time error diversion can move an element between
// queues, and DestroyQueue can drop its queue wholesale. Returns nil —
// with no lock held — when el is no longer live.
func (r *Repository) lockElem(el *elem) *queueState {
	for {
		qs := el.q.Load()
		qs.lock()
		if el.q.Load() == qs {
			if qs.dead || !el.linked {
				qs.unlock()
				return nil
			}
			return qs
		}
		qs.unlock()
	}
}

// qmetrics holds the queue's registry instruments, resolved once at queue
// creation so the per-operation cost is a single atomic add. Every
// qs.stats bump is mirrored here; the stats struct stays the synchronous
// per-queue API while the registry gives the cross-layer labeled view.
type qmetrics struct {
	enqueues   *obs.Counter
	dequeues   *obs.Counter
	requeues   *obs.Counter // abort-returns back onto the queue
	kills      *obs.Counter
	diversions *obs.Counter // retry-limit diversions to the error queue
	depth      *obs.Gauge
	inFlight   *obs.Gauge
}

// newQueueState builds a queue's state with instruments labeled by queue
// name. Counters for a re-created queue continue from the prior
// incarnation's values (cumulative by design); the depth gauge is zeroed
// on destroy so it always reflects live visible depth.
func (r *Repository) newQueueState(cfg QueueConfig) *queueState {
	qs := &queueState{
		name:       cfg.Name,
		volatile:   cfg.Volatile,
		errEmpty:   fmt.Errorf("%w: %s", ErrEmpty, cfg.Name),
		cfg:        cfg,
		lists:      make(map[int32]*elemList),
		setWaiters: make(map[*setWaiter]struct{}),
		mShardWait: r.mShardWait,
		elems:      r.elems,
	}
	qs.cond = sync.NewCond(&qs.mu)
	if ringEligible(&cfg) {
		qs.ring = newRing()
		qs.fastMode.Store(true)
	}
	qs.m = qmetrics{
		enqueues:   r.reg.Counter("queue.enqueues", "queue", cfg.Name),
		dequeues:   r.reg.Counter("queue.dequeues", "queue", cfg.Name),
		requeues:   r.reg.Counter("queue.requeues", "queue", cfg.Name),
		kills:      r.reg.Counter("queue.kills", "queue", cfg.Name),
		diversions: r.reg.Counter("queue.error_diversions", "queue", cfg.Name),
		depth:      r.reg.Gauge("queue.depth", "queue", cfg.Name),
		inFlight:   r.reg.Gauge("queue.in_flight", "queue", cfg.Name),
	}
	return qs
}

func (q *queueState) countEnqueue()   { q.stats.Enqueues++; q.m.enqueues.Inc() }
func (q *queueState) countDequeue()   { q.stats.Dequeues++; q.m.dequeues.Inc() }
func (q *queueState) countRequeue()   { q.stats.AbortReturns++; q.m.requeues.Inc() }
func (q *queueState) countKill()      { q.stats.Kills++; q.m.kills.Inc() }
func (q *queueState) countDiversion() { q.stats.ErrorDiversions++; q.m.diversions.Inc() }

func (q *queueState) bumpInFlight(delta int) {
	q.stats.InFlight += delta
	q.m.inFlight.Add(int64(delta))
}

// insert places el into FIFO position within its priority (ordered by seq,
// so recovery re-inserts in original order even when replay order differs).
func (q *queueState) insert(el *elem) {
	l, ok := q.lists[el.priority]
	if !ok {
		l = new(elemList)
		q.lists[el.priority] = l
		q.prios = append(q.prios, el.priority)
		sort.Slice(q.prios, func(i, j int) bool { return q.prios[i] > q.prios[j] })
	}
	l.insert(el)
}

func (q *queueState) remove(el *elem) {
	if el.linked {
		q.lists[el.priority].remove(el)
	}
}

// live counts elements in any state (pending, visible, dequeued).
func (q *queueState) live() int {
	n := 0
	for _, l := range q.lists {
		n += l.n
	}
	return n
}

func (q *queueState) bumpDepth(delta int) {
	q.stats.Depth += delta
	if q.stats.Depth > q.stats.MaxDepth {
		q.stats.MaxDepth = q.stats.Depth
	}
	q.m.depth.Add(int64(delta))
}
