package queue

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/enc"
	"repro/internal/lock"
	rlog "repro/internal/obs/log"
	"repro/internal/obs/trace"
	"repro/internal/txn"
)

// DequeueOpts select and tag a dequeue.
type DequeueOpts struct {
	// Tag is the registrant-defined operation tag recorded stably with the
	// dequeue (Section 4.3); nil leaves the registration untouched except
	// for the op/eid bookkeeping.
	Tag []byte
	// Wait blocks until an element is available (the paper's blocking
	// dequeue via "notify locks", Section 10). The context bounds the wait.
	Wait bool
	// Filter is a content-based retrieval predicate (local callers only).
	Filter func(*Element) bool
	// HeaderMatch is a wire-friendly content filter: every key must be
	// present in the element's headers with an equal value.
	HeaderMatch map[string]string
	// Prefer is a content-based scheduling comparator (Section 10:
	// requests "may be scheduled by priority, request contents (highest
	// dollar amount first), submission time"): when set, the dequeue scans
	// every available element and takes the one Prefer ranks best, rather
	// than the first in priority/FIFO order. Local callers only.
	Prefer func(a, b *Element) bool
	// PreferHeaderDesc is the wire-friendly form of Prefer: take the
	// element whose named header has the largest numeric value ("highest
	// dollar amount first"). Ignored when Prefer is set.
	PreferHeaderDesc string
}

// effectivePrefer resolves the comparator over queued elements.
// PreferHeaderDesc reads the packed headers in place; a Prefer callback is
// shown copies (see matches).
func (o *DequeueOpts) effectivePrefer() func(a, b *elem) bool {
	if prefer := o.Prefer; prefer != nil {
		return func(a, b *elem) bool {
			ea, eb := a.element(false), b.element(false)
			return prefer(&ea, &eb)
		}
	}
	if o.PreferHeaderDesc == "" {
		return nil
	}
	key := o.PreferHeaderDesc
	return func(a, b *elem) bool {
		av, _ := strconv.ParseFloat(a.headers.get(key), 64)
		bv, _ := strconv.ParseFloat(b.headers.get(key), 64)
		return av > bv
	}
}

// matches applies the content filters to a queued element. HeaderMatch
// reads the packed headers in place. A Filter callback runs under the shard
// lock on caller-supplied code, so it is shown a copy: nothing it does to
// the Element it is handed reaches the queue.
func (o *DequeueOpts) matches(el *elem) bool {
	for k, v := range o.HeaderMatch {
		if el.headers.get(k) != v {
			return false
		}
	}
	if o.Filter != nil {
		e := el.element(false)
		return o.Filter(&e)
	}
	return true
}

// Handle is a registrant's binding to one queue, returned by Register.
type Handle struct {
	r          *Repository
	queue      string
	registrant string
}

// Queue returns the handle's queue name.
func (h *Handle) Queue() string { return h.queue }

// Registrant returns the handle's registrant name.
func (h *Handle) Registrant() string { return h.registrant }

// --- registration ---

// Register associates a uniquely-named registrant with a queue and returns
// a handle plus the registrant's persistent last-operation info (Section
// 4.3). Registering an already-registered registrant is the recovery path:
// the existing registration is returned unchanged. stable selects whether
// the QM maintains the registrant's last operation.
func (r *Repository) Register(qname, registrant string, stable bool) (*Handle, RegInfo, error) {
	var ri RegInfo
	err := r.autoTxn(nil, func(t *txn.Txn) error {
		r.mu.RLock()
		if r.closed {
			r.mu.RUnlock()
			return ErrClosed
		}
		if _, ok := r.queues[qname]; !ok {
			r.mu.RUnlock()
			return fmt.Errorf("%w: %s", ErrNoQueue, qname)
		}
		r.mu.RUnlock()
		k := regKey{queue: qname, registrant: registrant}
		r.regMu.Lock()
		if g, ok := r.regs[k]; ok {
			ri = g.info()
			r.regMu.Unlock()
			return nil // re-registration: return prior state, log nothing
		}
		g := &registration{key: k, stable: stable}
		r.regs[k] = g
		ri = g.info()
		r.regMu.Unlock()
		t.OnUndo(func() {
			r.regMu.Lock()
			delete(r.regs, k)
			r.regMu.Unlock()
		})
		b := enc.NewBuffer(32)
		b.Uint8(opRegister)
		b.String(qname)
		b.String(registrant)
		b.Bool(stable)
		r.logOp(t, b.Bytes())
		return nil
	})
	if err != nil {
		return nil, RegInfo{}, err
	}
	r.maybeSnapshot()
	return &Handle{r: r, queue: qname, registrant: registrant}, ri, nil
}

// HandleFor returns a handle binding for an existing registration without
// performing a registration; operations through it fail with
// ErrNotRegistered if the registrant is unknown (tagged bookkeeping is
// simply skipped for untagged uses).
func (r *Repository) HandleFor(qname, registrant string) *Handle {
	return &Handle{r: r, queue: qname, registrant: registrant}
}

// Deregister destroys all registration information about the registrant on
// the handle's queue.
func (r *Repository) Deregister(h *Handle) error {
	err := r.autoTxn(nil, func(t *txn.Txn) error {
		r.mu.RLock()
		if r.closed {
			r.mu.RUnlock()
			return ErrClosed
		}
		r.mu.RUnlock()
		k := regKey{queue: h.queue, registrant: h.registrant}
		r.regMu.Lock()
		g, ok := r.regs[k]
		if !ok {
			r.regMu.Unlock()
			return fmt.Errorf("%w: %s on %s", ErrNotRegistered, h.registrant, h.queue)
		}
		delete(r.regs, k)
		r.regMu.Unlock()
		t.OnUndo(func() {
			r.regMu.Lock()
			r.regs[k] = g
			r.regMu.Unlock()
		})
		b := enc.NewBuffer(32)
		b.Uint8(opDeregister)
		b.String(h.queue)
		b.String(h.registrant)
		r.logOp(t, b.Bytes())
		return nil
	})
	return err
}

// regUndo remembers what a tagged operation overwrote in a registration,
// for the operation's transaction to put back if it aborts. The zero value
// (an untagged operation, or an unstable registration) undoes nothing.
type regUndo struct {
	g    *registration
	prev registration
}

func (u *regUndo) undo(r *Repository) {
	if u.g == nil {
		return
	}
	r.regMu.Lock()
	*u.g = u.prev
	r.regMu.Unlock()
}

// updateReg applies a tagged-operation update to the registrant's
// registration eagerly, recording in u how to undo it, and returns the
// stable copy of el it recorded (nil for unregistered or non-stable
// registrants). Called with no shard lock held, by the transaction that
// owns el; regMu is a leaf lock.
func (r *Repository) updateReg(u *regUndo, qname, registrant string, op OpType, tag []byte, el *elem) []byte {
	if registrant == "" {
		return nil
	}
	k := regKey{queue: qname, registrant: registrant}
	r.regMu.Lock()
	g, ok := r.regs[k]
	if !ok || !g.stable {
		r.regMu.Unlock()
		return nil
	}
	regCopy := marshalElem(el)
	u.g, u.prev = g, *g
	g.hasLast = true
	g.lastOp = op
	g.lastEID = el.eid
	g.lastTag = append([]byte(nil), tag...)
	g.lastElem = regCopy
	r.regMu.Unlock()
	return regCopy
}

// --- enqueue ---

// Enqueue creates an element in qname (following redirection) and returns
// its element id. Inside a transaction the element becomes visible at
// commit; with t == nil the operation auto-commits and the element is
// visible (and durable, for non-volatile queues) when Enqueue returns —
// this is the paper's Send guarantee ("when Send returns, the request and
// rid have been stably stored", Section 3). registrant and tag feed the
// persistent registration; pass "" / nil for untagged enqueues.
func (r *Repository) Enqueue(t *txn.Txn, qname string, e Element, registrant string, tag []byte) (EID, error) {
	return r.enqueue(t, qname, e, registrant, tag, false)
}

// EnqueueOwned is Enqueue for a caller that gives up e: the repository may
// keep e's Body, ScratchPad and Headers instead of copying them (it does
// for durable queues), so the caller must not touch them again. The queue
// service enqueues what it decoded off the wire this way — one copy of a
// request, not two.
func (r *Repository) EnqueueOwned(t *txn.Txn, qname string, e Element, registrant string, tag []byte) (EID, error) {
	return r.enqueue(t, qname, e, registrant, tag, true)
}

func (r *Repository) enqueue(t *txn.Txn, qname string, e Element, registrant string, tag []byte, owned bool) (EID, error) {
	if t == nil {
		if eid, ok, err := r.enqueueFast(qname, e, registrant, tag); ok {
			if err != nil {
				return 0, err
			}
			r.maybeSnapshot()
			return eid, nil
		}
	}
	var eid EID
	err := r.autoTxn(t, func(t *txn.Txn) error {
		r.mu.RLock()
		if r.closed {
			r.mu.RUnlock()
			return ErrClosed
		}
		qs, target, err := r.resolveRedirect(qname)
		if err != nil {
			r.mu.RUnlock()
			return err
		}
		e.EID = EID(r.nextEID.Add(1) - 1)
		e.seq = r.nextSeq.Add(1) - 1
		// Begin the enqueue span before the element is stored or logged:
		// rewriting e.Span to the enqueue span makes everything downstream
		// — the persisted record, recovery replay, the dequeuing server —
		// parent under this span.
		sp, traced := r.tracer.Begin(e.TraceRef(), "enqueue")
		if traced {
			sp.Annotate(trace.Str("queue", target), trace.Int64("eid", int64(e.EID)))
			e.Span = sp.ID
		}
		el := &elem{state: statePending, owner: t}
		el.fill(&e, owned)
		el.q.Store(qs)
		qs.lock()
		r.mu.RUnlock()
		qs.sealFastLocked()
		if qs.cfg.MaxDepth > 0 && qs.live() >= int(qs.cfg.MaxDepth) {
			qs.unlock()
			return fmt.Errorf("%w: %s at max depth %d", ErrFull, target, qs.cfg.MaxDepth)
		}
		qs.insert(el)
		qs.unlock()
		r.elems.put(el.eid, el)
		eid = el.eid

		op := &enqueueOp{r: r, qs: qs, el: el, target: target}
		r.updateReg(&op.reg, qname, registrant, OpEnqueue, tag, el)
		if traced {
			// A traced-only heap copy: pointing op at sp itself would move
			// it to the heap on every enqueue even with tracing off (escape
			// analysis is flow-insensitive).
			op.t, op.sp = t, new(trace.Span)
			*op.sp = sp
		}
		t.Enlist(op)
		if !qs.volatile {
			b := enc.GetBuffer()
			b.Uint8(opEnqueue)
			encodeElement(b, el, target)
			b.String(registrant)
			b.BytesField(tag)
			b.String(qname) // registration queue; differs from target under redirection
			encodeTraceTail(b, el)
			r.logOp(t, b.Bytes())
			enc.PutBuffer(b)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	r.maybeSnapshot()
	return eid, nil
}

// enqueueOp is a transactional enqueue's stake in its transaction: the
// pending element, and what making it visible or taking it back needs.
type enqueueOp struct {
	r      *Repository
	qs     *queueState
	el     *elem
	target string
	reg    regUndo

	// Traced enqueues only: the enqueue span, finished at commit with the
	// commit record's LSN.
	t  *txn.Txn
	sp *trace.Span
}

func (op *enqueueOp) Undo() {
	qs, el := op.qs, op.el
	qs.lock()
	qs.remove(el)
	qs.maybeReopenFastLocked()
	qs.unlock()
	op.r.elems.del(el.eid)
	op.reg.undo(op.r)
}

func (op *enqueueOp) Aborted() {}

func (op *enqueueOp) Committed() {
	r, qs, el := op.r, op.qs, op.el
	qs.lock()
	el.state = stateVisible
	el.owner = nil
	if op.sp != nil {
		el.coldWrite().visibleAt = time.Now().UnixNano()
	}
	qs.bumpDepth(1)
	qs.countEnqueue()
	depth := qs.stats.Depth
	alert := qs.cfg.AlertThreshold > 0 && depth == int(qs.cfg.AlertThreshold)
	qs.notifyLocked() // this queue's waiters only
	qs.unlock()
	// Alerts and triggers run strictly after the shard lock is
	// released: both re-enter the repository (fireTrigger enqueues,
	// the alert callback may).
	fires := r.dueTriggers(op.target, depth)
	if alert {
		r.fireAlert(op.target, depth)
	}
	for _, tr := range fires {
		go r.fireTrigger(tr)
	}
	if op.sp != nil {
		if lsn := op.t.CommitLSN(); lsn != 0 {
			op.sp.Annotate(trace.Int64("lsn", int64(lsn)))
		}
		r.tracer.Finish(op.sp)
	}
}

// enqueueFast is the direct path for auto-committed enqueues into
// volatile queues, enabled by the striped design: a volatile enqueue logs
// nothing and an auto-commit transaction around it cannot abort between
// insert and commit, so making the element visible inside one shard
// critical section is indistinguishable from an instantly-committed
// transaction — without paying for one. When the op additionally carries
// no priority, no trace to record and no trigger is watching, it skips
// the shard lock entirely and publishes through the queue's lock-free
// ring (see ring.go and DESIGN.md §10). Returns ok=false (untouched
// state) when the target queue is durable and the caller must take the
// transactional path.
func (r *Repository) enqueueFast(qname string, e Element, registrant string, tag []byte) (EID, bool, error) {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return 0, true, ErrClosed
	}
	qs, target, err := r.resolveRedirect(qname)
	if err != nil {
		r.mu.RUnlock()
		return 0, true, err
	}
	if !qs.volatile {
		r.mu.RUnlock()
		return 0, false, nil
	}
	if e.Priority == 0 && r.ntrig.Load() == 0 &&
		!(r.tracer.Enabled() && !e.Trace.IsZero()) && qs.enterFast() {
		r.mu.RUnlock()
		ne := e.clone()
		ne.EID = EID(r.nextEID.Add(1) - 1)
		ne.Queue = target
		ne.seq = r.nextSeq.Add(1) - 1
		// A full ring usually means the consumer is one scheduler quantum
		// behind, not genuinely absent; a few yields let it drain and keep
		// a momentary burst from forcing the expensive seal-and-drain
		// fallback. The gate is released across each yield so a sealer is
		// never made to wait on a parked producer.
		for attempt := 0; ; attempt++ {
			if qs.ring.push(&ne) {
				qs.fastEnqs.Add(1)
				qs.m.enqueues.Inc()
				qs.m.depth.Add(1)
				qs.exitFast()
				r.mFastHits.Inc()
				r.fastRegUpdate(qname, registrant, OpEnqueue, ne.EID, tag, &ne)
				// Close the trigger-creation race: if a trigger was
				// installed after the gate check above, re-evaluate against
				// the published depth. With seq-cst atomics, either this
				// load sees the new count or CreateTrigger's post-install
				// depth read sees our bump — one side always fires (see
				// CreateTrigger).
				if r.ntrig.Load() != 0 {
					for _, tr := range r.dueTriggers(target, int(qs.m.depth.Value())) {
						go r.fireTrigger(tr)
					}
				}
				return ne.EID, true, nil
			}
			qs.exitFast()
			if attempt >= ringFullYields {
				break
			}
			if attempt < ringSpinYields {
				runtime.Gosched()
			} else {
				// Cooperative yields didn't free a slot: the consumer is
				// not schedulable from here (oversubscribed host). Park on
				// a timer so it can drain a stretch, not one slot.
				time.Sleep(ringYieldSleep)
			}
			if !qs.enterFast() { // sealed while yielding
				break
			}
		}
		// Ring still full (or sealed): land the already-prepared element
		// via the locked path. The seal there drains the ring first, so
		// arrival order by seq is preserved in the lists.
		r.mu.RLock()
		if r.closed {
			r.mu.RUnlock()
			return 0, true, ErrClosed
		}
		qs, target, err = r.resolveRedirect(qname)
		if err != nil {
			r.mu.RUnlock()
			return 0, true, err
		}
		if !qs.volatile { // destroyed and recreated durable meanwhile
			r.mu.RUnlock()
			return 0, false, nil
		}
		ne.Queue = target
		return r.enqueueFastLocked(qs, target, qname, ne, true, registrant, tag)
	}
	e.EID = EID(r.nextEID.Add(1) - 1)
	e.Queue = target
	e.seq = r.nextSeq.Add(1) - 1
	return r.enqueueFastLocked(qs, target, qname, e, false, registrant, tag)
}

// enqueueFastLocked is the shard-locked tail of enqueueFast: the
// auto-commit volatile insert for operations the ring cannot serve
// (priority, traced, triggers watching, ring full, or fast path sealed).
// Called with r.mu read-held; releases it. Counts one fastpath fallback
// on every completed-op return. owned says ne is already the repository's
// own copy (the ring path's clone).
func (r *Repository) enqueueFastLocked(qs *queueState, target, qname string, ne Element, owned bool, registrant string, tag []byte) (EID, bool, error) {
	sp, traced := r.tracer.Begin(ne.TraceRef(), "enqueue")
	if traced {
		sp.Annotate(trace.Str("queue", target), trace.Int64("eid", int64(ne.EID)))
		ne.Span = sp.ID
	}
	el := &elem{state: stateVisible}
	el.fill(&ne, owned)
	if traced {
		el.coldWrite().visibleAt = time.Now().UnixNano()
	}
	el.q.Store(qs)
	qs.lock()
	r.mu.RUnlock()
	qs.sealFastLocked()
	if qs.cfg.MaxDepth > 0 && qs.live() >= int(qs.cfg.MaxDepth) {
		qs.unlock()
		r.mFastFallbacks.Inc()
		return 0, true, fmt.Errorf("%w: %s at max depth %d", ErrFull, target, qs.cfg.MaxDepth)
	}
	qs.insert(el)
	qs.bumpDepth(1)
	qs.countEnqueue()
	depth := qs.stats.Depth
	alert := qs.cfg.AlertThreshold > 0 && depth == int(qs.cfg.AlertThreshold)
	qs.notifyLocked()
	qs.unlock()
	r.elems.put(ne.EID, el)
	if traced {
		r.tracer.Finish(&sp)
	}
	r.fastRegUpdate(qname, registrant, OpEnqueue, ne.EID, tag, &ne)
	r.mFastFallbacks.Inc()
	fires := r.dueTriggers(target, depth)
	if alert {
		r.fireAlert(target, depth)
	}
	for _, tr := range fires {
		go r.fireTrigger(tr)
	}
	return ne.EID, true, nil
}

// fastRegUpdate applies a tagged-operation update for an auto-committed
// operation: eager and undo-free, since the operation can no longer
// abort.
func (r *Repository) fastRegUpdate(qname, registrant string, op OpType, eid EID, tag []byte, e *Element) {
	if registrant == "" {
		return
	}
	k := regKey{queue: qname, registrant: registrant}
	r.regMu.Lock()
	g, ok := r.regs[k]
	if !ok || !g.stable {
		r.regMu.Unlock()
		return
	}
	g.hasLast = true
	g.lastOp = op
	g.lastEID = eid
	g.lastTag = append([]byte(nil), tag...)
	g.lastElem = marshalElement(e)
	r.regMu.Unlock()
}

// resolveRedirect follows RedirectTo chains (Section 9's queue
// redirection), returning the terminal queue. Caller holds r.mu in either
// mode (configs only change under the exclusive lock).
func (r *Repository) resolveRedirect(qname string) (*queueState, string, error) {
	target := qname
	for hops := 0; ; hops++ {
		if hops > 8 {
			return nil, "", fmt.Errorf("%w: starting at %s", ErrRedirectLoop, qname)
		}
		qs, ok := r.queues[target]
		if !ok {
			return nil, "", fmt.Errorf("%w: %s", ErrNoQueue, target)
		}
		if qs.cfg.RedirectTo == "" {
			return qs, target, nil
		}
		target = qs.cfg.RedirectTo
	}
}

// --- dequeue ---

// Dequeue removes and returns the next available element of qname. Element
// order is priority-descending, FIFO within a priority, skipping elements
// held by uncommitted transactions unless the queue is StrictFIFO. If the
// dequeuing transaction aborts, the element returns to the queue with its
// AbortCount incremented; the RetryLimit-th abort diverts it to the
// queue's error queue (Section 4.2).
func (r *Repository) Dequeue(ctx context.Context, t *txn.Txn, qname, registrant string, opts DequeueOpts) (Element, error) {
	var out Element
	if t == nil {
		if ok, err := r.dequeueFast(ctx, qname, registrant, opts, &out); ok {
			if err != nil {
				return Element{}, err
			}
			r.maybeSnapshot()
			return out, nil
		}
	}
	// An auto-committed dequeue has consumed its element by the time it
	// returns — out of the lists and the eid index, or the commit failed
	// and out is dropped — so it hands the element over instead of copying
	// it. Inside a transaction the caller gets a copy: an abort returns the
	// original to the queue.
	auto := t == nil
	err := r.autoTxn(t, func(t *txn.Txn) error {
		return r.dequeueInto(ctx, t, qname, registrant, opts, &out, auto)
	})
	if err != nil {
		return Element{}, err
	}
	r.maybeSnapshot()
	return out, nil
}

// dequeueFast is the direct path for auto-committed dequeues from
// volatile queues: claim and commit collapse into one shard critical
// section (remove the element, bump the counters, done). An auto-commit
// transaction around a volatile dequeue stages no log record and so
// cannot fail between claim and commit; removing the element outright is
// the same observable history with no window for Doom to land in.
// Unfiltered non-waiting dequeues go further and pop the queue's
// lock-free ring without any lock; the ring's empty answer is
// authoritative because fast mode implies the locked lists are empty.
// Returns ok=false (untouched state) when the queue is durable.
func (r *Repository) dequeueFast(ctx context.Context, qname, registrant string, opts DequeueOpts, out *Element) (bool, error) {
	var waitStart time.Time
	woken := false
	var stopWatch func() bool
	defer func() {
		if stopWatch != nil {
			stopWatch()
		}
	}()
	// Filters and comparators need a scan of the locked lists; plain
	// front-of-queue dequeues are ring-eligible.
	fastOK := opts.Filter == nil && opts.HeaderMatch == nil &&
		opts.Prefer == nil && opts.PreferHeaderDesc == ""
	tryFast := fastOK
	for {
		r.mu.RLock()
		if r.closed {
			r.mu.RUnlock()
			return true, ErrClosed
		}
		qs, ok := r.queues[qname]
		if !ok {
			r.mu.RUnlock()
			return true, fmt.Errorf("%w: %s", ErrNoQueue, qname)
		}
		if !qs.volatile {
			r.mu.RUnlock()
			return false, nil
		}
		if tryFast && qs.enterFast() {
			r.mu.RUnlock()
			st := qs.ring.pop(out)
			if st == ringOK {
				qs.fastDeqs.Add(1)
				qs.m.dequeues.Inc()
				qs.m.depth.Add(-1)
				qs.exitFast()
				r.mFastHits.Inc()
				if woken {
					r.mWakeTargeted.Inc()
				}
				if !waitStart.IsZero() {
					r.mWaitNanos.Observe(time.Since(waitStart).Nanoseconds())
				}
				r.fastRegUpdate(qname, registrant, OpDequeue, out.EID, opts.Tag, out)
				r.recordFastDequeueSpan(out)
				return true, nil
			}
			qs.exitFast()
			if st == ringInflight {
				// An enqueue has linearized but not yet published; yield to
				// it rather than answer "empty" out of order.
				runtime.Gosched()
				continue
			}
			// ringEmpty: with fast mode on, the locked lists are empty too,
			// so this is the queue's authoritative empty answer.
			if !opts.Wait {
				r.mFastHits.Inc()
				return true, qs.errEmpty
			}
			// Parking needs the condition variable, which ring enqueues do
			// not signal: take the locked path (sealing the ring) to wait.
			tryFast = false
			continue
		}
		qs.lock()
		r.mu.RUnlock()
		if qs.stopped {
			qs.unlock()
			r.mFastFallbacks.Inc()
			return true, fmt.Errorf("%w: %s", ErrStopped, qname)
		}
		qs.sealFastLocked()
		el, blocked := scanQueueLocked(qs, &opts)
		if el != nil {
			qs.remove(el)
			qs.bumpDepth(-1)
			qs.countDequeue()
			qs.maybeReopenFastLocked()
			qs.unlock()
			r.elems.del(el.eid)
			if woken {
				r.mWakeTargeted.Inc()
			}
			if !waitStart.IsZero() {
				r.mWaitNanos.Observe(time.Since(waitStart).Nanoseconds())
			}
			// el is unreachable now (out of the lists and the eid index);
			// hand its element over without a defensive copy.
			*out = el.element(true)
			r.fastRegUpdate(qname, registrant, OpDequeue, el.eid, opts.Tag, out)
			r.recordDequeueSpan(el)
			r.mFastFallbacks.Inc()
			return true, nil
		}
		_ = blocked // strict-FIFO in-flight head: wait like empty
		if !opts.Wait {
			qs.maybeReopenFastLocked()
			qs.unlock()
			r.mFastFallbacks.Inc()
			return true, qs.errEmpty
		}
		if ctx != nil && ctx.Err() != nil {
			qs.maybeReopenFastLocked()
			qs.unlock()
			r.mFastFallbacks.Inc()
			return true, ctx.Err()
		}
		if woken {
			r.mWakeSpurious.Inc()
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		if stopWatch == nil && ctx != nil && ctx.Done() != nil {
			// Installed lazily, before the first wait: the non-blocking
			// path never pays for the cancellation watcher.
			stopWatch = context.AfterFunc(ctx, func() { r.wakeQueue(qname) })
		}
		qs.nwait++
		qs.cond.Wait()
		qs.nwait--
		woken = true
		qs.unlock()
		// A locked enqueue may have been the last obstacle to fast mode;
		// retry the ring first in case the queue reopened.
		tryFast = fastOK
	}
}

// recordFastDequeueSpan is the ring path's residency span: ring elements
// carry no visibleAt (the enqueue gate routes traced elements to the
// locked path), so tracing here is normally a no-op; the check keeps
// late-enabled tracers from crashing on zero-trace elements.
func (r *Repository) recordFastDequeueSpan(e *Element) {
	if !r.tracer.Enabled() || e.Trace.IsZero() {
		return
	}
	now := time.Now()
	r.tracer.RecordAt(e.TraceRef(), "dequeue", now, now,
		trace.Str("queue", e.Queue), trace.Int64("eid", int64(e.EID)))
}

func (r *Repository) dequeueInto(ctx context.Context, t *txn.Txn, qname, registrant string, opts DequeueOpts, out *Element, handOver bool) error {
	var waitStart time.Time
	woken := false
	var stopWatch func() bool
	defer func() {
		if stopWatch != nil {
			stopWatch()
		}
	}()
	for {
		r.mu.RLock()
		if r.closed {
			r.mu.RUnlock()
			return ErrClosed
		}
		qs, ok := r.queues[qname]
		if !ok {
			r.mu.RUnlock()
			return fmt.Errorf("%w: %s", ErrNoQueue, qname)
		}
		qs.lock()
		r.mu.RUnlock()
		if qs.stopped {
			qs.unlock()
			return fmt.Errorf("%w: %s", ErrStopped, qname)
		}
		qs.sealFastLocked()
		el, blocked := scanQueueLocked(qs, &opts)
		if el != nil {
			claimShardLocked(qs, el, t)
			qs.unlock()
			if woken {
				r.mWakeTargeted.Inc()
			}
			if !waitStart.IsZero() {
				r.mWaitNanos.Observe(time.Since(waitStart).Nanoseconds())
			}
			r.wireClaim(t, el, qname, registrant, opts.Tag)
			r.recordDequeueSpan(el)
			// el is exclusively owned by t now; materialising it outside the
			// shard lock is safe (only t's own undo mutates it later).
			*out = el.element(handOver)
			return nil
		}
		_ = blocked // strict-FIFO in-flight head: wait like empty
		if !opts.Wait {
			qs.maybeReopenFastLocked()
			qs.unlock()
			return qs.errEmpty
		}
		if ctx != nil && ctx.Err() != nil {
			qs.maybeReopenFastLocked()
			qs.unlock()
			return ctx.Err()
		}
		if woken {
			r.mWakeSpurious.Inc()
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		if stopWatch == nil && ctx != nil && ctx.Done() != nil {
			// Wake this queue's waiters on cancellation so the loop can
			// observe ctx.Err(). Installed lazily, before the first wait,
			// so the non-blocking path never pays for the watcher.
			stopWatch = context.AfterFunc(ctx, func() { r.wakeQueue(qname) })
		}
		// Park on this queue's condition variable; only commits touching
		// this queue (or DDL on it, or close) signal it. The wait releases
		// just the shard lock, so checkpoints and other queues proceed.
		qs.nwait++
		qs.cond.Wait()
		qs.nwait--
		woken = true
		qs.unlock()
		// Re-resolve by name: the queue may have been destroyed (dead) or
		// destroyed-and-recreated while we were parked.
	}
}

// wakeQueue broadcasts on one queue's condition variable (context
// cancellation path).
func (r *Repository) wakeQueue(qname string) {
	r.mu.RLock()
	qs, ok := r.queues[qname]
	if !ok {
		r.mu.RUnlock()
		return
	}
	qs.lock()
	r.mu.RUnlock()
	qs.cond.Broadcast()
	qs.unlock()
}

// scanQueueLocked finds the dequeue candidate. blocked reports that a
// strict-FIFO queue's next element is held by an uncommitted transaction.
// Caller holds the shard lock.
func scanQueueLocked(qs *queueState, opts *DequeueOpts) (*elem, bool) {
	prefer := opts.effectivePrefer()
	var best *elem
	for _, prio := range qs.prios {
		for el := qs.lists[prio].head; el != nil; el = el.next {
			switch el.state {
			case statePending:
				continue // uncommitted enqueue: not yet in the queue
			case stateDequeued:
				if qs.cfg.StrictFIFO {
					return nil, true // must not overtake the in-flight head
				}
				continue // skip-locked (Section 10)
			case stateVisible:
				if !opts.matches(el) {
					continue
				}
				if prefer == nil {
					return el, false
				}
				// Content-based scheduling: rank the whole queue.
				if best == nil || prefer(el, best) {
					best = el
				}
			}
		}
	}
	return best, false
}

// claimShardLocked is the in-shard half of a dequeue claim. Caller holds
// el's shard lock and follows up with wireClaim after releasing it.
func claimShardLocked(qs *queueState, el *elem, t *txn.Txn) {
	el.state = stateDequeued
	el.owner = t
	qs.bumpDepth(-1)
	qs.bumpInFlight(1)
}

// recordDequeueSpan records the element's queue-residency interval — from
// the moment it became visible (or was reconstructed by recovery) to the
// claiming dequeue — as a "dequeue" span parented under the element's
// enqueue span. Called after the claim, when the caller owns el
// exclusively; one element re-dequeued after aborts or crashes honestly
// yields one such span per attempt.
func (r *Repository) recordDequeueSpan(el *elem) {
	c := el.coldRead()
	if !r.tracer.Enabled() || c.trace.IsZero() {
		return
	}
	attrs := []trace.Attr{
		trace.Str("queue", el.q.Load().name),
		trace.Int64("eid", int64(el.eid)),
	}
	if el.redelivered {
		attrs = append(attrs, trace.Int64("redelivered", 1))
	}
	r.tracer.RecordAt(el.traceRef(), "dequeue", time.Unix(0, c.visibleAt), time.Now(), attrs...)
}

// claimReturn records what the abort path did, for the claim's durable
// abort-return record.
type claimReturn struct {
	count   int32
	moved   string
	volatil bool
	killed  bool
}

// claimOp is a transactional dequeue's stake in its transaction: the
// claimed element, to consume at commit or return at abort.
type claimOp struct {
	r        *Repository
	el       *elem
	reg      regUndo
	returned claimReturn
}

// Undo returns the element (or diverts it to the error queue on the n-th
// abort, or drops it if killed meanwhile).
func (op *claimOp) Undo() {
	op.r.undoClaim(op.el, &op.returned)
	op.reg.undo(op.r)
}

// Aborted writes the durable record of the abort-return, outside all locks.
func (op *claimOp) Aborted() {
	if op.returned.killed || op.returned.volatil {
		return
	}
	op.r.logAbortReturn(op.el.eid, op.returned.count, op.returned.moved)
}

func (op *claimOp) Committed() {
	el := op.el
	qs := el.q.Load() // stable while dequeued (diversion happens only on abort)
	qs.lock()
	qs.remove(el)
	qs.bumpInFlight(-1)
	qs.countDequeue()
	if qs.cfg.StrictFIFO {
		qs.notifyLocked() // waiters were blocked behind this in-flight head
	}
	qs.maybeReopenFastLocked()
	qs.unlock()
	op.r.elems.del(el.eid)
}

// wireClaim finishes a dequeue claim outside the shard lock: registration
// update, undo/abort/commit behaviour, and redo-record staging (the WAL
// record is staged here and appended by the transaction's commit — never
// under a shard lock).
func (r *Repository) wireClaim(t *txn.Txn, el *elem, regQueue, registrant string, tag []byte) {
	op := &claimOp{r: r, el: el}
	regCopy := r.updateReg(&op.reg, regQueue, registrant, OpDequeue, tag, el)
	t.Enlist(op)
	if qs := el.q.Load(); !qs.volatile {
		b := enc.GetBuffer()
		b.Uint8(opDequeue)
		b.String(qs.name)
		b.Uvarint(uint64(el.eid))
		b.String(regQueue)
		b.String(registrant)
		b.BytesField(tag)
		b.BytesField(regCopy)
		r.logOp(t, b.Bytes())
		enc.PutBuffer(b)
	}
}

// undoClaim returns a claimed element to its queue when the claiming
// transaction rolls back: plain requeue, error-queue diversion on the
// retry limit, or drop if killed meanwhile. Runs with no locks held; the
// two-shard diversion case locks both shards in name order (lockPair).
func (r *Repository) undoClaim(el *elem, returned *claimReturn) {
	r.mu.RLock()
	qs := el.q.Load() // stable: only this undo moves a dequeued element
	var eqs *queueState
	if qs.cfg.RetryLimit > 0 && qs.cfg.ErrorQueue != "" {
		eqs = r.queues[qs.cfg.ErrorQueue] // may be nil (missing error queue)
	}
	lockPair(qs, eqs)
	r.mu.RUnlock()
	// qs is necessarily sealed (it holds el); the error queue may not be,
	// and the diversion below inserts into its lists.
	qs.sealFastLocked()
	if eqs != nil && eqs != qs {
		eqs.sealFastLocked()
	}

	qs.bumpInFlight(-1)
	if el.killed {
		qs.remove(el)
		returned.killed = true
		strict := qs.cfg.StrictFIFO
		if strict {
			qs.notifyLocked() // removal unblocks waiters behind the head
		}
		qs.maybeReopenFastLocked()
		unlockPair(qs, eqs)
		r.elems.del(el.eid)
		return
	}
	el.owner = nil
	el.abortCount++
	returned.count = el.abortCount
	returned.volatil = qs.volatile
	qs.countRequeue()
	if eqs != nil && el.abortCount >= qs.cfg.RetryLimit {
		qs.remove(el)
		el.coldWrite().abortCode = fmt.Sprintf("aborted %d times", el.abortCount)
		el.q.Store(eqs)
		el.state = stateVisible
		eqs.insert(el)
		eqs.bumpDepth(1)
		qs.countDiversion()
		returned.moved = eqs.name
		eqs.notifyLocked() // new visible element in the error queue
		if eqs != qs && qs.cfg.StrictFIFO {
			qs.notifyLocked() // head removed from the source queue
		}
		qs.maybeReopenFastLocked() // the diverted element left this queue
		unlockPair(qs, eqs)
		r.logger.Warn("element diverted to error queue",
			rlog.Str("queue", qs.name),
			rlog.Str("error_queue", eqs.name),
			rlog.Uint64("eid", uint64(el.eid)),
			rlog.Int("aborts", int(el.abortCount)))
		return
	}
	el.state = stateVisible
	if c := el.cold; c != nil && c.visibleAt != 0 {
		c.visibleAt = time.Now().UnixNano() // residency restarts for the retry's span
	}
	qs.bumpDepth(1)
	qs.notifyLocked() // element visible again
	unlockPair(qs, eqs)
}

// logAbortReturn durably records that an aborted dequeue returned an
// element (with its new abort count, possibly diverted to an error queue),
// so retry counting survives crashes. Runs outside all repository locks,
// in its own system transaction.
func (r *Repository) logAbortReturn(eid EID, count int32, movedTo string) {
	st := r.tm.Begin()
	b := enc.NewBuffer(24)
	b.Uint8(opAbortReturn)
	b.Uvarint(uint64(eid))
	b.Varint(int64(count))
	b.String(movedTo)
	st.LogOp(rmName, b.Bytes())
	_ = st.Commit() // best-effort: a crash here merely loses one retry tick
}

// DequeueSet dequeues the best available element across several queues (a
// "queue set", Section 9): highest priority first, then oldest. All queues
// must exist; StrictFIFO blocking applies per queue. While waiting, the
// caller registers a waiter token on every member queue, so a commit on
// any member wakes this set — and commits elsewhere wake nothing.
func (r *Repository) DequeueSet(ctx context.Context, t *txn.Txn, qnames []string, registrant string, opts DequeueOpts) (Element, error) {
	var out Element
	err := r.autoTxn(t, func(t *txn.Txn) error {
		// Sorted unique names give the ordered multi-shard acquisition.
		names := append([]string(nil), qnames...)
		sort.Strings(names)
		uniq := names[:0]
		for i, n := range names {
			if i == 0 || n != names[i-1] {
				uniq = append(uniq, n)
			}
		}
		names = uniq
		if len(names) == 0 {
			return fmt.Errorf("%w: empty set", ErrNoQueue)
		}

		var sw *setWaiter
		var registered []*queueState // shards carrying sw, for cleanup
		if opts.Wait {
			sw = newSetWaiter()
			if ctx != nil && ctx.Done() != nil {
				stop := context.AfterFunc(ctx, sw.fire)
				defer stop()
			}
			defer func() {
				for _, qs := range registered {
					qs.lock()
					delete(qs.setWaiters, sw)
					qs.maybeReopenFastLocked()
					qs.unlock()
				}
			}()
		}

		var waitStart time.Time
		woken := false
		cur := make([]*queueState, len(names))
		for {
			r.mu.RLock()
			if r.closed {
				r.mu.RUnlock()
				return ErrClosed
			}
			for i, n := range names {
				qs, ok := r.queues[n]
				if !ok {
					r.mu.RUnlock()
					return fmt.Errorf("%w: %s", ErrNoQueue, n)
				}
				cur[i] = qs
			}
			for _, qs := range cur {
				qs.lock()
			}
			r.mu.RUnlock()
			// The scan below needs every member's locked lists complete.
			for _, qs := range cur {
				qs.sealFastLocked()
			}

			var best *elem
			var bestQS *queueState
			var bestQueue string
			for i, qs := range cur {
				if qs.stopped {
					continue
				}
				el, _ := scanQueueLocked(qs, &opts)
				if el == nil {
					continue
				}
				if best == nil || el.priority > best.priority ||
					(el.priority == best.priority && el.seq < best.seq) {
					best = el
					bestQS = qs
					bestQueue = names[i]
				}
			}
			if best != nil {
				claimShardLocked(bestQS, best, t)
				for i := len(cur) - 1; i >= 0; i-- {
					cur[i].maybeReopenFastLocked()
					cur[i].unlock()
				}
				if woken {
					r.mWakeTargeted.Inc()
				}
				if !waitStart.IsZero() {
					r.mWaitNanos.Observe(time.Since(waitStart).Nanoseconds())
				}
				r.wireClaim(t, best, bestQueue, registrant, opts.Tag)
				r.recordDequeueSpan(best)
				out = best.element(false)
				return nil
			}
			if !opts.Wait {
				for i := len(cur) - 1; i >= 0; i-- {
					cur[i].maybeReopenFastLocked()
					cur[i].unlock()
				}
				return fmt.Errorf("%w: set %v", ErrEmpty, qnames)
			}
			if ctx != nil && ctx.Err() != nil {
				for i := len(cur) - 1; i >= 0; i-- {
					cur[i].maybeReopenFastLocked()
					cur[i].unlock()
				}
				return ctx.Err()
			}
			if woken {
				r.mWakeSpurious.Inc()
			}
			// Subscribe to every member while still holding all shard
			// locks: any commit after this release finds the token, so no
			// wakeup is lost between scan and wait.
			for _, qs := range cur {
				if _, ok := qs.setWaiters[sw]; !ok {
					qs.setWaiters[sw] = struct{}{}
					registered = append(registered, qs)
				}
			}
			for i := len(cur) - 1; i >= 0; i-- {
				cur[i].unlock()
			}
			if waitStart.IsZero() {
				waitStart = time.Now()
			}
			sw.wait()
			woken = true
		}
	})
	if err != nil {
		return Element{}, err
	}
	return out, nil
}

// --- read ---

// Read returns a copy of a live element without modifying it (Section
// 4.2). Elements held by uncommitted dequeuers are readable (their
// committed state is "in the queue"); uncommitted enqueues are not.
func (r *Repository) Read(eid EID) (Element, error) {
	el, ok := r.elems.get(eid)
	if !ok {
		// The element may be riding a lock-free ring, invisible to the eid
		// index; sealing the fast-resident queues materializes it.
		r.drainFastResident()
		el, ok = r.elems.get(eid)
	}
	if !ok {
		return Element{}, fmt.Errorf("%w: eid %d", ErrNotFound, eid)
	}
	qs := r.lockElem(el)
	if qs == nil {
		return Element{}, fmt.Errorf("%w: eid %d", ErrNotFound, eid)
	}
	if el.state == statePending {
		qs.unlock()
		return Element{}, fmt.Errorf("%w: eid %d", ErrNotFound, eid)
	}
	e := el.element(false)
	qs.unlock()
	return e, nil
}

// ReadLast returns the element most recently operated on by the handle's
// registrant, served from the registration's stable copy — even if the
// element has since been consumed (the basis of Rereceive, Sections 4.3
// and 5).
func (r *Repository) ReadLast(h *Handle) (Element, error) {
	r.regMu.Lock()
	g, ok := r.regs[regKey{queue: h.queue, registrant: h.registrant}]
	if !ok {
		r.regMu.Unlock()
		return Element{}, fmt.Errorf("%w: %s on %s", ErrNotRegistered, h.registrant, h.queue)
	}
	if !g.hasLast || g.lastElem == nil {
		r.regMu.Unlock()
		return Element{}, fmt.Errorf("%w: no last element for %s", ErrNotFound, h.registrant)
	}
	data := g.lastElem
	r.regMu.Unlock()
	return unmarshalElement(data)
}

// --- cancellation ---

// KillElement tries to delete the element (the paper's cancellation
// primitive, Section 7): a waiting element is deleted; an element held by
// an uncommitted dequeuer dooms that transaction and is deleted when it
// rolls back; an element already consumed (or held by a prepared
// transaction, whose outcome the coordinator owns) is not killed.
// KillElement reports whether the element is now guaranteed dead. It is
// always auto-committed.
func (r *Repository) KillElement(eid EID) (bool, error) {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return false, ErrClosed
	}
	r.mu.RUnlock()
	el, ok := r.elems.get(eid)
	if !ok {
		// Ring-resident elements are not in the eid index; seal the
		// fast-resident queues and retry before concluding it is gone.
		r.drainFastResident()
		el, ok = r.elems.get(eid)
	}
	if !ok {
		return false, nil // already consumed (or never existed)
	}
	qs := r.lockElem(el)
	if qs == nil {
		return false, nil // consumed (or its queue destroyed) meanwhile
	}
	switch el.state {
	case statePending:
		// Uncommitted enqueue: the killer cannot have learned this eid
		// through a committed channel; treat as not-found.
		qs.unlock()
		return false, nil
	case stateDequeued:
		// Mark killed first so the owner's abort-undo (which may run at any
		// moment) drops the element instead of requeueing it; then ask the
		// owner to die. Doom's answer is authoritative: true means the
		// owner is guaranteed to abort.
		owner := el.owner
		volatil := qs.volatile
		el.killed = true
		qs.unlock()
		if owner != nil && owner.Doom() {
			if !volatil {
				r.logKill(eid)
			}
			return true, nil
		}
		// The owner's outcome is out of our hands: it committed (element
		// consumed — not killed), is prepared (coordinator owns it), or
		// already aborted. In the last case its undo ran before we set
		// killed (state transitions under the shard lock make later undos
		// see the flag), so check whether the flag took effect.
		cur, present := r.elems.get(eid)
		if present && cur == el {
			if qs2 := r.lockElem(el); qs2 != nil {
				el.killed = false // owner will (or did) consume or keep it
				qs2.unlock()
				return false, nil
			}
		}
		if owner != nil && owner.State() == txn.Aborted {
			// Element is gone and the owner aborted: the kill took effect.
			if !volatil {
				r.logKill(eid)
			}
			return true, nil
		}
		return false, nil
	case stateVisible:
		qs.remove(el)
		qs.bumpDepth(-1)
		qs.countKill()
		qs.maybeReopenFastLocked()
		volatil := qs.volatile
		qs.unlock()
		r.elems.del(eid)
		if !volatil {
			r.logKill(eid)
		}
		return true, nil
	}
	qs.unlock()
	return false, nil
}

func (r *Repository) logKill(eid EID) {
	st := r.tm.Begin()
	b := enc.NewBuffer(12)
	b.Uint8(opKill)
	b.Uvarint(uint64(eid))
	st.LogOp(rmName, b.Bytes())
	_ = st.Commit()
}

// --- key-value tables (the server-side shared database) ---

func kvResource(table, key string) string { return "kv/" + table + "/" + key }

// KVSet transactionally writes table[key] = value under an exclusive lock.
func (r *Repository) KVSet(ctx context.Context, t *txn.Txn, table, key string, value []byte) error {
	return r.autoTxn(t, func(t *txn.Txn) error {
		if err := t.Lock(ctx, kvResource(table, key), lock.Exclusive); err != nil {
			return err
		}
		value := append([]byte(nil), value...)
		r.mu.RLock()
		if r.closed {
			r.mu.RUnlock()
			return ErrClosed
		}
		r.mu.RUnlock()
		r.kvMu.Lock()
		tbl, ok := r.tables[table]
		if !ok {
			tbl = make(map[string][]byte)
			r.tables[table] = tbl
		}
		old, had := tbl[key]
		tbl[key] = value
		r.kvMu.Unlock()
		t.OnUndo(func() {
			r.kvMu.Lock()
			if had {
				tbl[key] = old
			} else {
				delete(tbl, key)
			}
			r.kvMu.Unlock()
		})
		b := enc.NewBuffer(32 + len(value))
		b.Uint8(opKVSet)
		b.String(table)
		b.String(key)
		b.BytesField(value)
		r.logOp(t, b.Bytes())
		return nil
	})
}

// KVGet reads table[key]. Inside a transaction it takes a shared lock (or
// exclusive when forUpdate), giving serializable reads; with t == nil it
// reads committed state without locking.
func (r *Repository) KVGet(ctx context.Context, t *txn.Txn, table, key string, forUpdate bool) ([]byte, bool, error) {
	if t != nil {
		mode := lock.Shared
		if forUpdate {
			mode = lock.Exclusive
		}
		if err := t.Lock(ctx, kvResource(table, key), mode); err != nil {
			return nil, false, err
		}
	}
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return nil, false, ErrClosed
	}
	r.mu.RUnlock()
	r.kvMu.Lock()
	defer r.kvMu.Unlock()
	v, ok := r.tables[table][key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// KVDelete transactionally deletes table[key].
func (r *Repository) KVDelete(ctx context.Context, t *txn.Txn, table, key string) error {
	return r.autoTxn(t, func(t *txn.Txn) error {
		if err := t.Lock(ctx, kvResource(table, key), lock.Exclusive); err != nil {
			return err
		}
		r.mu.RLock()
		if r.closed {
			r.mu.RUnlock()
			return ErrClosed
		}
		r.mu.RUnlock()
		r.kvMu.Lock()
		tbl := r.tables[table]
		old, had := tbl[key]
		if had {
			delete(tbl, key)
			t.OnUndo(func() {
				r.kvMu.Lock()
				tbl[key] = old
				r.kvMu.Unlock()
			})
		}
		r.kvMu.Unlock()
		b := enc.NewBuffer(32)
		b.Uint8(opKVDel)
		b.String(table)
		b.String(key)
		r.logOp(t, b.Bytes())
		return nil
	})
}

// --- handle conveniences (the paper's fig. 3 surface) ---

// Enqueue enqueues into the handle's queue with the registrant's tag.
func (h *Handle) Enqueue(t *txn.Txn, e Element, tag []byte) (EID, error) {
	return h.r.Enqueue(t, h.queue, e, h.registrant, tag)
}

// Dequeue dequeues from the handle's queue with the registrant's tag.
func (h *Handle) Dequeue(ctx context.Context, t *txn.Txn, opts DequeueOpts) (Element, error) {
	return h.r.Dequeue(ctx, t, h.queue, h.registrant, opts)
}

// ReadLast returns the registrant's last-operated element (Rereceive).
func (h *Handle) ReadLast() (Element, error) { return h.r.ReadLast(h) }

// Info returns the registrant's current persistent registration info.
func (h *Handle) Info() (RegInfo, error) {
	h.r.regMu.Lock()
	defer h.r.regMu.Unlock()
	g, ok := h.r.regs[regKey{queue: h.queue, registrant: h.registrant}]
	if !ok {
		return RegInfo{}, fmt.Errorf("%w: %s on %s", ErrNotRegistered, h.registrant, h.queue)
	}
	return g.info(), nil
}
