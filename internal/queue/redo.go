package queue

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/enc"
	"repro/internal/obs/trace"
	"repro/internal/txn"
)

// Redo op kinds, the first byte of every queue-manager redo record.
const (
	opEnqueue       uint8 = 1
	opDequeue       uint8 = 2
	opKill          uint8 = 3
	opAbortReturn   uint8 = 4
	opCreateQueue   uint8 = 5
	opDestroyQueue  uint8 = 6
	opRegister      uint8 = 7
	opDeregister    uint8 = 8
	opSetStopped    uint8 = 9
	opKVSet         uint8 = 10
	opKVDel         uint8 = 11
	opTriggerCreate uint8 = 12
	opTriggerFire   uint8 = 13
	opUpdateQueue   uint8 = 14
)

// RMName implements txn.ResourceManager.
func (r *Repository) RMName() string { return rmName }

// raiseFloor lifts an atomic counter to at least min (CAS max; recovery
// replays concurrently-allocated ids in commit order).
func raiseFloor(a *atomic.Uint64, min uint64) {
	for {
		cur := a.Load()
		if cur >= min {
			return
		}
		if a.CompareAndSwap(cur, min) {
			return
		}
	}
}

// lockedQueue looks up a queue by name and returns it with its shard lock
// held (nil if absent). Replay-path helper; follows the repo→shard order.
func (r *Repository) lockedQueue(name string) *queueState {
	r.mu.RLock()
	qs, ok := r.queues[name]
	if !ok {
		r.mu.RUnlock()
		return nil
	}
	qs.lock()
	r.mu.RUnlock()
	// Replay mutates the locked lists directly; recovery-time rings are
	// empty, so this only closes the fast gate until normal traffic
	// reopens it.
	qs.sealFastLocked()
	return qs
}

// Redo re-applies one committed operation. Recovery does not call it: it
// runs the two halves on different goroutines (see txn.Manager.Recover).
func (r *Repository) Redo(data []byte) error {
	item, err := r.DecodeRedo(data)
	if err != nil {
		return err
	}
	return r.ApplyRedo(item)
}

// redoItem is one decoded redo operation. Items own their bytes: nothing
// in one aliases the record it was decoded from.
type redoItem interface {
	apply(r *Repository) error
}

type (
	redoEnqueue struct {
		el                          *elem // decoded in place, ready to link into queue
		queue, registrant, regQueue string
		tag                         []byte
	}
	redoDequeue struct {
		eid                  EID
		regQueue, registrant string
		tag, regCopy         []byte
	}
	redoKill        struct{ eid EID }
	redoAbortReturn struct {
		eid     EID
		count   int32
		movedTo string
	}
	redoCreateQueue  struct{ cfg QueueConfig }
	redoUpdateQueue  struct{ cfg QueueConfig }
	redoDestroyQueue struct{ name string }
	redoRegister     struct {
		key    regKey
		stable bool
	}
	redoDeregister struct{ key regKey }
	redoSetStopped struct {
		name    string
		stopped bool
	}
	redoKVSet struct {
		table, key string
		value      []byte
	}
	redoKVDel         struct{ table, key string }
	redoTriggerCreate struct{ tr *trigger }
	redoTriggerFire   struct{ id string }
)

// decodeEnqueue reads the body of an opEnqueue record (after the kind
// byte) into a fresh element.
func (r *Repository) decodeEnqueue(rd *enc.Reader, state elemState) (*redoEnqueue, error) {
	// The element is reconstructed by recovery: it resumes its original
	// trace, and any server that dequeues it is re-executing the request
	// after a crash.
	it := &redoEnqueue{el: &elem{state: state, redelivered: true}}
	var err error
	if it.queue, err = decodeElement(rd, r.intern, it.el); err != nil {
		return nil, err
	}
	it.registrant = rd.String()
	if it.registrant != "" {
		it.tag = rd.BytesField()
	} else {
		_ = rd.View() // a tag without a registrant records nothing
	}
	it.regQueue = r.intern.Intern(rd.View())
	decodeTraceTail(rd, it.el) // absent on pre-trace records
	return it, rd.Err()
}

// DecodeRedo implements txn.ResourceManager: the half of replay that only
// reads the record. It looks at no repository state except the string
// table, so recovery runs it ahead of ApplyRedo on a goroutine of its own;
// and data may be a view into a scan buffer about to be reused, so every
// byte the item keeps is copied here, once, into memory the item owns.
func (r *Repository) DecodeRedo(data []byte) (any, error) {
	rd := enc.NewReader(data)
	kind := rd.Uint8()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	var it redoItem
	switch kind {
	case opEnqueue:
		enq, err := r.decodeEnqueue(rd, stateVisible)
		if err != nil {
			return nil, err
		}
		it = enq
	case opDequeue:
		_ = rd.View() // element's queue (diagnostic)
		d := &redoDequeue{eid: EID(rd.Uvarint())}
		d.regQueue = rd.String()
		d.registrant = rd.String()
		d.tag = rd.BytesField()
		if d.regCopy = rd.BytesField(); len(d.regCopy) == 0 {
			d.regCopy = nil
		}
		it = d
	case opKill:
		it = &redoKill{eid: EID(rd.Uvarint())}
	case opAbortReturn:
		it = &redoAbortReturn{eid: EID(rd.Uvarint()), count: int32(rd.Varint()), movedTo: rd.String()}
	case opCreateQueue:
		it = &redoCreateQueue{cfg: decodeConfig(rd)}
	case opDestroyQueue:
		it = &redoDestroyQueue{name: rd.String()}
	case opRegister:
		it = &redoRegister{key: regKey{queue: rd.String(), registrant: rd.String()}, stable: rd.Bool()}
	case opDeregister:
		it = &redoDeregister{key: regKey{queue: rd.String(), registrant: rd.String()}}
	case opSetStopped:
		it = &redoSetStopped{name: rd.String(), stopped: rd.Bool()}
	case opKVSet:
		it = &redoKVSet{table: rd.String(), key: rd.String(), value: rd.BytesField()}
	case opKVDel:
		it = &redoKVDel{table: rd.String(), key: rd.String()}
	case opTriggerCreate:
		tr := &trigger{id: rd.String(), watch: rd.String(), threshold: int32(rd.Varint())}
		var err error
		if tr.fire, err = decodeDetached(rd, r.intern, false); err != nil {
			return nil, err
		}
		it = &redoTriggerCreate{tr: tr}
	case opTriggerFire:
		it = &redoTriggerFire{id: rd.String()}
	case opUpdateQueue:
		it = &redoUpdateQueue{cfg: decodeConfig(rd)}
	default:
		return nil, fmt.Errorf("queue: unknown redo op %d", kind)
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	return it, nil
}

// ApplyRedo implements txn.ResourceManager: the half of replay that changes
// the repository. Operations apply in original commit order, so every
// precondition (queue exists, element exists) holds by construction;
// violations indicate a corrupt log and are reported. One goroutine
// applies, but it takes the same fine-grained locks as live traffic so the
// invariants hold uniformly (and stay clean under the race detector in
// tests that replay concurrently with reads).
func (r *Repository) ApplyRedo(item any) error { return item.(redoItem).apply(r) }

func (it *redoEnqueue) apply(r *Repository) error {
	el := it.el
	qs := r.lockedQueue(it.queue)
	if qs == nil {
		return fmt.Errorf("queue: redo enqueue into missing queue %s", it.queue)
	}
	if r.tracer.Enabled() && !el.coldRead().trace.IsZero() {
		now := time.Now()
		el.cold.visibleAt = now.UnixNano()
		r.tracer.RecordAt(el.traceRef(), "replay", now, now,
			trace.Str("queue", it.queue), trace.Int64("eid", int64(el.eid)))
	}
	el.q.Store(qs)
	qs.insert(el)
	qs.bumpDepth(1)
	qs.countEnqueue()
	qs.unlock()
	r.elems.put(el.eid, el)
	raiseFloor(&r.nextEID, uint64(el.eid)+1)
	raiseFloor(&r.nextSeq, el.seq+1)
	r.redoRegUpdate(it.regQueue, it.registrant, OpEnqueue, el.eid, it.tag, el, nil)
	return nil
}

func (it *redoDequeue) apply(r *Repository) error {
	el, ok := r.elems.get(it.eid)
	if !ok {
		return fmt.Errorf("queue: redo dequeue of missing element %d", it.eid)
	}
	qs := r.lockElem(el)
	if qs == nil {
		return fmt.Errorf("queue: redo dequeue of missing element %d", it.eid)
	}
	qs.remove(el)
	qs.bumpDepth(-1)
	qs.countDequeue()
	qs.unlock()
	r.elems.del(it.eid)
	r.redoRegUpdate(it.regQueue, it.registrant, OpDequeue, it.eid, it.tag, nil, it.regCopy)
	return nil
}

func (it *redoKill) apply(r *Repository) error {
	if el, ok := r.elems.get(it.eid); ok {
		if qs := r.lockElem(el); qs != nil {
			qs.remove(el)
			if el.state == stateVisible {
				qs.bumpDepth(-1)
			}
			qs.countKill()
			qs.unlock()
		}
		r.elems.del(it.eid)
	}
	return nil
}

func (it *redoAbortReturn) apply(r *Repository) error {
	el, ok := r.elems.get(it.eid)
	if !ok {
		return nil // element since consumed; count no longer matters
	}
	r.mu.RLock()
	qs := el.q.Load()
	var eqs *queueState
	if it.movedTo != "" && qs.name != it.movedTo {
		eqs = r.queues[it.movedTo]
	}
	lockPair(qs, eqs)
	r.mu.RUnlock()
	el.abortCount = it.count
	if eqs != nil && eqs != qs {
		qs.remove(el)
		if el.state == stateVisible {
			qs.bumpDepth(-1)
		}
		qs.countDiversion()
		el.coldWrite().abortCode = fmt.Sprintf("aborted %d times", it.count)
		el.q.Store(eqs)
		eqs.insert(el)
		if el.state == stateVisible {
			eqs.bumpDepth(1)
		}
	}
	unlockPair(qs, eqs)
	return nil
}

func (it *redoCreateQueue) apply(r *Repository) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.queues[it.cfg.Name]; ok {
		return fmt.Errorf("queue: redo create of existing queue %s", it.cfg.Name)
	}
	r.queues[it.cfg.Name] = r.newQueueState(it.cfg)
	return nil
}

func (it *redoDestroyQueue) apply(r *Repository) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	qs, ok := r.queues[it.name]
	if !ok {
		return nil
	}
	qs.lock()
	var eids []EID
	for _, l := range qs.lists {
		for el := l.head; el != nil; el = el.next {
			eids = append(eids, el.eid)
		}
	}
	delete(r.queues, it.name)
	qs.dead = true
	qs.m.depth.Add(-int64(qs.stats.Depth))
	qs.unlock()
	for _, eid := range eids {
		r.elems.del(eid)
	}
	return nil
}

func (it *redoRegister) apply(r *Repository) error {
	r.regMu.Lock()
	if _, ok := r.regs[it.key]; !ok {
		r.regs[it.key] = &registration{key: it.key, stable: it.stable}
	}
	r.regMu.Unlock()
	return nil
}

func (it *redoDeregister) apply(r *Repository) error {
	r.regMu.Lock()
	delete(r.regs, it.key)
	r.regMu.Unlock()
	return nil
}

func (it *redoSetStopped) apply(r *Repository) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if qs, ok := r.queues[it.name]; ok {
		qs.lock()
		qs.stopped = it.stopped
		qs.unlock()
	}
	return nil
}

func (it *redoKVSet) apply(r *Repository) error {
	r.kvMu.Lock()
	tbl, ok := r.tables[it.table]
	if !ok {
		tbl = make(map[string][]byte)
		r.tables[it.table] = tbl
	}
	tbl[it.key] = it.value
	r.kvMu.Unlock()
	return nil
}

func (it *redoKVDel) apply(r *Repository) error {
	r.kvMu.Lock()
	delete(r.tables[it.table], it.key)
	r.kvMu.Unlock()
	return nil
}

func (it *redoTriggerCreate) apply(r *Repository) error {
	r.trigMu.Lock()
	r.triggers[it.tr.id] = it.tr
	r.syncTrigCount()
	r.trigMu.Unlock()
	return nil
}

func (it *redoTriggerFire) apply(r *Repository) error {
	r.trigMu.Lock()
	delete(r.triggers, it.id)
	r.syncTrigCount()
	r.trigMu.Unlock()
	return nil
}

func (it *redoUpdateQueue) apply(r *Repository) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if qs, ok := r.queues[it.cfg.Name]; ok {
		qs.lock()
		cfg := it.cfg
		cfg.Volatile = qs.cfg.Volatile
		qs.cfg = cfg
		qs.unlock()
	}
	return nil
}

// redoRegUpdate applies a tagged-operation update during replay. The
// registration's stand-alone element copy is el's encoding when el is given
// (a replayed enqueue: marshalled only here, once the registration is
// known to be stable — most enqueues have no registrant at all), else
// elemCopy as logged.
func (r *Repository) redoRegUpdate(qname, registrant string, op OpType, eid EID, tag []byte, el *elem, elemCopy []byte) {
	if registrant == "" {
		return
	}
	r.regMu.Lock()
	defer r.regMu.Unlock()
	g, ok := r.regs[regKey{queue: qname, registrant: registrant}]
	if !ok || !g.stable {
		return
	}
	g.hasLast = true
	g.lastOp = op
	g.lastEID = eid
	g.lastTag = tag
	if el != nil {
		elemCopy = marshalElem(el)
	}
	if elemCopy != nil {
		g.lastElem = elemCopy
	}
}

// RedoPrepared re-applies an in-doubt operation as uncommitted state inside
// t, re-acquiring the element's claim and re-registering undo/commit
// behaviour exactly as the original execution did.
func (r *Repository) RedoPrepared(t *txn.Txn, data []byte) error {
	rd := enc.NewReader(data)
	kind := rd.Uint8()
	if err := rd.Err(); err != nil {
		return err
	}
	switch kind {
	case opEnqueue:
		it, err := r.decodeEnqueue(rd, statePending)
		if err != nil {
			return err
		}
		el := it.el
		el.owner = t
		qs := r.lockedQueue(it.queue)
		if qs == nil {
			return fmt.Errorf("queue: redo-prepared enqueue into missing queue %s", it.queue)
		}
		el.q.Store(qs)
		qs.insert(el)
		qs.unlock()
		r.elems.put(el.eid, el)
		raiseFloor(&r.nextEID, uint64(el.eid)+1)
		raiseFloor(&r.nextSeq, el.seq+1)
		var reg regUndo
		r.updateReg(&reg, it.regQueue, it.registrant, OpEnqueue, it.tag, el)
		t.OnUndo(func() {
			qs.lock()
			qs.remove(el)
			qs.unlock()
			r.elems.del(el.eid)
			reg.undo(r)
		})
		t.OnCommit(func() {
			qs.lock()
			el.state = stateVisible
			el.owner = nil
			qs.bumpDepth(1)
			qs.countEnqueue()
			qs.notifyLocked()
			qs.unlock()
		})
		return nil

	case opDequeue:
		_ = rd.View()
		eid := EID(rd.Uvarint())
		regQueue := rd.String()
		registrant := rd.String()
		tag := rd.BytesField()
		_ = rd.View() // regCopy recomputed by wireClaim
		if err := rd.Err(); err != nil {
			return err
		}
		el, ok := r.elems.get(eid)
		if !ok {
			return fmt.Errorf("queue: redo-prepared dequeue of unavailable element %d", eid)
		}
		qs := r.lockElem(el)
		if qs == nil || el.state != stateVisible {
			if qs != nil {
				qs.unlock()
			}
			return fmt.Errorf("queue: redo-prepared dequeue of unavailable element %d", eid)
		}
		claimShardLocked(qs, el, t)
		qs.unlock()
		r.wireClaim(t, el, regQueue, registrant, tag)
		return nil

	default:
		// Other ops never appear in prepared (2PC) transactions: prepare is
		// used only by the distributed dequeue/enqueue path.
		return fmt.Errorf("queue: unexpected prepared op %d", kind)
	}
}

// --- triggers (Section 6 fork/join) ---

// CreateTrigger installs a trigger: when watch's visible depth reaches
// threshold, fire is enqueued into fire.Queue and the trigger is removed.
// If the condition already holds, the trigger fires immediately.
func (r *Repository) CreateTrigger(id, watch string, threshold int32, fire Element) error {
	var fireNow *trigger
	err := r.autoTxn(nil, func(t *txn.Txn) error {
		r.mu.RLock()
		if r.closed {
			r.mu.RUnlock()
			return ErrClosed
		}
		if _, ok := r.queues[watch]; !ok {
			r.mu.RUnlock()
			return fmt.Errorf("%w: %s", ErrNoQueue, watch)
		}
		if _, ok := r.queues[fire.Queue]; !ok {
			r.mu.RUnlock()
			return fmt.Errorf("%w: %s", ErrNoQueue, fire.Queue)
		}
		depthGauge := r.queues[watch].m.depth
		r.mu.RUnlock()
		tr := &trigger{id: id, watch: watch, threshold: threshold, fire: fire.clone()}
		r.trigMu.Lock()
		r.triggers[id] = tr
		r.syncTrigCount()
		r.trigMu.Unlock()
		t.OnUndo(func() {
			r.trigMu.Lock()
			delete(r.triggers, id)
			r.syncTrigCount()
			r.trigMu.Unlock()
		})
		// Read the watch depth only after the trigger and its count are
		// published: a concurrent lock-free enqueue either observes the
		// count (and re-evaluates triggers itself) or its depth bump is
		// sequenced before this read — either way the condition is
		// checked against a depth that includes it.
		watchDepth := int(depthGauge.Value())
		b := enc.NewBuffer(64)
		b.Uint8(opTriggerCreate)
		b.String(id)
		b.String(watch)
		b.Varint(int64(threshold))
		encodeDetached(b, &tr.fire, false)
		r.logOp(t, b.Bytes())
		if watchDepth >= int(threshold) {
			fireNow = tr
		}
		return nil
	})
	if err != nil {
		return err
	}
	if fireNow != nil {
		// Claim it (dueTriggers may have raced us) before firing.
		r.trigMu.Lock()
		_, ok := r.triggers[fireNow.id]
		if ok {
			delete(r.triggers, fireNow.id)
			r.syncTrigCount()
		}
		r.trigMu.Unlock()
		if ok {
			go r.fireTrigger(fireNow)
		}
	}
	return nil
}

// Triggers lists installed trigger ids.
func (r *Repository) Triggers() []string {
	r.trigMu.Lock()
	defer r.trigMu.Unlock()
	out := make([]string, 0, len(r.triggers))
	for id := range r.triggers {
		out = append(out, id)
	}
	return out
}

// dueTriggers collects triggers whose condition now holds on qname, given
// its visible depth at commit time, marking them so each fires once.
// Called with no shard lock held (trigMu is a leaf lock).
func (r *Repository) dueTriggers(qname string, depth int) []*trigger {
	r.trigMu.Lock()
	defer r.trigMu.Unlock()
	var due []*trigger
	for id, tr := range r.triggers {
		if tr.watch != qname {
			continue
		}
		if depth >= int(tr.threshold) {
			due = append(due, tr)
			delete(r.triggers, id) // claimed; durable removal in fireTrigger
		}
	}
	r.syncTrigCount()
	return due
}

// fireTrigger durably fires a claimed trigger: one system transaction
// removes the trigger and enqueues its element.
func (r *Repository) fireTrigger(tr *trigger) {
	st := r.tm.Begin()
	b := enc.NewBuffer(16)
	b.Uint8(opTriggerFire)
	b.String(tr.id)
	st.LogOp(rmName, b.Bytes())
	if _, err := r.Enqueue(st, tr.fire.Queue, tr.fire, "", nil); err != nil {
		_ = st.Abort()
		// Re-install so the trigger is not lost.
		r.trigMu.Lock()
		r.triggers[tr.id] = tr
		r.syncTrigCount()
		r.trigMu.Unlock()
		return
	}
	_ = st.Commit()
}

// RecheckTriggers evaluates all triggers against current depths; Open's
// caller uses it after recovery in case a trigger's condition was already
// met before a crash. Candidates are collected first, then re-claimed one
// at a time (depth reads take the repo read lock, which must not nest
// inside trigMu).
func (r *Repository) RecheckTriggers() {
	r.trigMu.Lock()
	cands := make([]*trigger, 0, len(r.triggers))
	for _, tr := range r.triggers {
		cands = append(cands, tr)
	}
	r.trigMu.Unlock()
	var due []*trigger
	for _, tr := range cands {
		d, err := r.Depth(tr.watch)
		if err != nil || d < int(tr.threshold) {
			continue
		}
		r.trigMu.Lock()
		if _, ok := r.triggers[tr.id]; ok {
			delete(r.triggers, tr.id)
			r.syncTrigCount()
			due = append(due, tr)
		}
		r.trigMu.Unlock()
	}
	for _, tr := range due {
		r.fireTrigger(tr)
	}
}
