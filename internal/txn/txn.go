// Package txn implements the transaction manager shared by the queue
// manager and the transactional key-value store.
//
// Design: main-memory resource managers apply changes eagerly under locks
// and register (a) an undo closure, run if the transaction aborts, and (b)
// a redo record, written to the write-ahead log when the transaction
// commits. A transaction's redo records are written as one atomic commit
// record, so the log never contains a partial transaction: recovery is
// redo-only — load the latest snapshot, then re-apply every committed
// record after it, in LSN order.
//
// For distributed transactions (a server dequeuing from one repository and
// enqueueing into another, paper Sections 5–6), a transaction can instead
// be prepared: its redo records are logged in a prepare record, and a later
// decision record commits or aborts it. Recovery re-instates prepared but
// undecided transactions as in-doubt, re-applying their effects as
// uncommitted state so their locks are re-held until the coordinator's
// decision arrives (presumed abort).
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/enc"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/wal"
)

// Log record types used by the transaction manager.
const (
	recCommit   uint8 = 1 // redo ops of a locally committed transaction
	recPrepare  uint8 = 2 // redo ops of a prepared (in-doubt) transaction
	recDecision uint8 = 3 // commit/abort decision for a prepared transaction
)

// State is a transaction's lifecycle state.
type State int8

const (
	// Active transactions accept operations.
	Active State = iota
	// Prepared transactions await a commit/abort decision (2PC phase 2).
	Prepared
	// Committed is terminal.
	Committed
	// Aborted is terminal.
	Aborted
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Prepared:
		return "prepared"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("State(%d)", int8(s))
	}
}

// Errors returned by the transaction manager.
var (
	// ErrNotActive reports an operation on a transaction that has left the
	// Active state.
	ErrNotActive = errors.New("txn: not active")
	// ErrNotPrepared reports a decision for a transaction that is not
	// prepared.
	ErrNotPrepared = errors.New("txn: not prepared")
	// ErrUnknownRM reports a recovery record naming an unregistered
	// resource manager.
	ErrUnknownRM = errors.New("txn: unknown resource manager")
	// ErrDoomed reports a commit attempt on a transaction that was doomed
	// (e.g. its dequeued element was killed by a cancellation, paper
	// Section 7). The transaction is rolled back instead.
	ErrDoomed = errors.New("txn: doomed")
)

// Op is one redo operation belonging to a resource manager.
type Op struct {
	RM   string
	Data []byte
}

// ResourceManager replays redo records at recovery. Replay of a committed
// operation is split in two so that Recover can run the halves on
// different goroutines: ApplyRedo(DecodeRedo(data)) re-applies data.
type ResourceManager interface {
	// RMName identifies the resource manager in redo records.
	RMName() string
	// DecodeRedo parses one logged operation into an item for ApplyRedo.
	// It must not touch the state ApplyRedo changes — Recover calls it
	// ahead of the applier, on another goroutine — and the item must not
	// alias data, which is a view into a buffer about to be reused.
	DecodeRedo(data []byte) (item any, err error)
	// ApplyRedo re-applies a decoded committed operation to in-memory
	// state. It is called exactly once per logged op, in original commit
	// order, by one goroutine.
	ApplyRedo(item any) error
	// RedoPrepared re-applies an in-doubt operation as uncommitted state
	// inside t: it must re-acquire the affected resources' locks via t and
	// re-register undo and commit hooks, exactly as the original execution
	// did.
	RedoPrepared(t *Txn, data []byte) error
}

// Manager coordinates transactions over one write-ahead log and one lock
// manager (one per repository/node).
type Manager struct {
	log   *wal.Log
	locks *lock.Manager

	mu  sync.Mutex
	rms map[string]ResourceManager

	// nextID and the active-transaction table are on every Begin/finish;
	// the table is striped by id so concurrent committers do not
	// serialize on one mutex (the map is bookkeeping for prepared-txn
	// scans and recovery, never a cross-transaction ordering point).
	nextID  atomic.Uint64
	stripes [activeStripes]txnStripe

	// commitGate serializes commits against snapshotting: commits hold it
	// shared, snapshot serialization holds it exclusively so a snapshot
	// never observes a half-applied commit.
	commitGate sync.RWMutex

	// Instruments (txn.begun, txn.committed, txn.aborted, txn.prepared,
	// txn.active, txn.commit_ns, txn.prepare_ns), resolved once at
	// construction. begun == committed + aborted + active is the package's
	// conservation law: every transaction ever begun (or reinstated
	// in-doubt at recovery) is either finished or still active.
	mBegun       *obs.Counter
	mCommitted   *obs.Counter
	mAborted     *obs.Counter
	mPrepared    *obs.Counter
	mActive      *obs.Gauge
	mCommitNanos *obs.Histogram
	mPrepNanos   *obs.Histogram

	// tracer records commit/prepare spans for traced transactions; nil
	// disables them (one nil check per commit).
	tracer *trace.Tracer
}

// NewManager returns a Manager writing to log and locking through lm, with
// a private metrics registry.
func NewManager(log *wal.Log, lm *lock.Manager) *Manager {
	return NewManagerWith(log, lm, nil)
}

// NewManagerWith is NewManager with the instruments registered in reg (nil
// gives the manager a private registry).
func NewManagerWith(log *wal.Log, lm *lock.Manager, reg *obs.Registry) *Manager {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Manager{
		log:          log,
		locks:        lm,
		rms:          make(map[string]ResourceManager),
		mBegun:       reg.Counter("txn.begun"),
		mCommitted:   reg.Counter("txn.committed"),
		mAborted:     reg.Counter("txn.aborted"),
		mPrepared:    reg.Counter("txn.prepared"),
		mActive:      reg.Gauge("txn.active"),
		mCommitNanos: reg.Histogram("txn.commit_ns"),
		mPrepNanos:   reg.Histogram("txn.prepare_ns"),
	}
	m.nextID.Store(1)
	for i := range m.stripes {
		m.stripes[i].txns = make(map[uint64]*Txn)
	}
	return m
}

// activeStripes is the stripe count of the active-transaction table; a
// small power of two comfortably above typical committer concurrency.
const activeStripes = 16

type txnStripe struct {
	mu   sync.Mutex
	txns map[uint64]*Txn
	// pad spaces stripes a cache line apart so neighboring stripes'
	// mutexes do not false-share.
	_ [40]byte
}

func (m *Manager) stripe(id uint64) *txnStripe {
	return &m.stripes[id%activeStripes]
}

// eachActive calls f on every live transaction, one stripe at a time.
// Cold-path only (prepared scans, recovery checks).
func (m *Manager) eachActive(f func(*Txn)) {
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		for _, t := range s.txns {
			f(t)
		}
		s.mu.Unlock()
	}
}

// SetTracer installs the tracer commit/prepare spans are recorded into
// (nil disables). Call before traffic, alongside RegisterRM.
func (m *Manager) SetTracer(tr *trace.Tracer) { m.tracer = tr }

// RegisterRM registers a resource manager for recovery replay.
func (m *Manager) RegisterRM(rm ResourceManager) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rms[rm.RMName()] = rm
}

// Locks exposes the lock manager (shared with resource managers).
func (m *Manager) Locks() *lock.Manager { return m.locks }

// Log exposes the write-ahead log.
func (m *Manager) Log() *wal.Log { return m.log }

// NextID returns the next transaction id that will be assigned. Snapshots
// persist it so ids never repeat across restarts.
func (m *Manager) NextID() uint64 {
	return m.nextID.Load()
}

// SetNextID raises the next transaction id; used when loading a snapshot.
func (m *Manager) SetNextID(id uint64) {
	for {
		cur := m.nextID.Load()
		if id <= cur || m.nextID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// Stats reports commit/abort counters.
func (m *Manager) Stats() (commits, aborts uint64) {
	return m.mCommitted.Value(), m.mAborted.Value()
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	id := m.nextID.Add(1) - 1
	t := &Txn{m: m, id: id}
	s := m.stripe(id)
	s.mu.Lock()
	s.txns[id] = t
	s.mu.Unlock()
	m.mBegun.Inc()
	m.mActive.Add(1)
	return t
}

// BlockCommits runs f while no commit is in flight; the repository uses it
// to serialize snapshots against commits.
func (m *Manager) BlockCommits(f func() error) error {
	m.commitGate.Lock()
	defer m.commitGate.Unlock()
	return f()
}

// Txn is a single transaction. A Txn is not safe for concurrent use by
// multiple goroutines; each transaction belongs to one worker.
type Txn struct {
	m  *Manager
	id uint64
	// state holds a State (zero is Active). It changes under doomMu but
	// is atomic so that OldestPrepareLSN can read it, and the prepareLSN
	// stored before it, under only a stripe lock: taking doomMu there
	// would deadlock against a commit that holds doomMu while it waits
	// for commitGate, which the checkpoint calling OldestPrepareLSN holds.
	state atomic.Int32

	ops        []Op
	hooks      []Hook
	prepareLSN wal.LSN // set while Prepared; guards log truncation

	// arena holds the bytes of the staged redo ops (pooled; nil until the
	// first LogOp). ops0 and hooks0 back ops and hooks for the usual
	// transaction — a dequeue and an enqueue — so
	// staging them allocates nothing.
	arena  *enc.Buffer
	ops0   [2]Op
	hooks0 [2]Hook

	// traceRef is the request trace this transaction works for; set by
	// the server that begins the transaction (SetTrace). Commit and
	// Prepare record spans under it.
	traceRef trace.Ref
	// commitLSN is the transaction's commit (or prepare) record LSN,
	// readable from OnCommit hooks — the enqueue span's LSN annotation.
	commitLSN wal.LSN
	// lockWaitNS accumulates time this transaction spent blocked in
	// Lock, annotated onto the commit span. Traced transactions only.
	lockWaitNS int64

	// doomMu guards state transitions against Doom, the only cross-
	// goroutine entry point on a Txn. It is held across the commit-record
	// append so that Doom's answer ("will this transaction abort?") is
	// final: once a commit record is durable, Doom returns false.
	doomMu sync.Mutex
	doomed bool
}

// ID returns the transaction id (also its lock-owner id).
func (t *Txn) ID() uint64 { return t.id }

// SetTrace attaches a request trace to the transaction; Commit and
// Prepare then record txn.commit / txn.prepare spans parented under ref.
func (t *Txn) SetTrace(ref trace.Ref) { t.traceRef = ref }

// TraceRef returns the transaction's trace context (zero if untraced).
func (t *Txn) TraceRef() trace.Ref { return t.traceRef }

// CommitLSN returns the LSN of the transaction's commit or prepare
// record (0 before one is written, or for read-only transactions).
// Valid inside OnCommit hooks.
func (t *Txn) CommitLSN() wal.LSN { return t.commitLSN }

// State returns the transaction's state.
func (t *Txn) State() State { return State(t.state.Load()) }

func (t *Txn) setState(s State) { t.state.Store(int32(s)) }

// Doom condemns an active transaction from another goroutine: its Commit
// (or Prepare) will fail with ErrDoomed and roll back. Doom returns true if
// the transaction is now guaranteed to abort, false if it already left the
// Active state (its outcome is no longer influenceable). The paper's
// KillElement uses this to abort the transaction that holds a request
// being cancelled.
func (t *Txn) Doom() bool {
	t.doomMu.Lock()
	defer t.doomMu.Unlock()
	if t.State() != Active {
		return false
	}
	t.doomed = true
	return true
}

// Lock acquires resource in mode on behalf of the transaction, blocking per
// the lock manager's rules. Traced transactions accumulate blocked time
// for the commit span's lock_wait_ns annotation.
func (t *Txn) Lock(ctx context.Context, resource string, mode lock.Mode) error {
	if t.State() != Active {
		return ErrNotActive
	}
	if t.m.tracer.Enabled() && t.traceRef.Valid() {
		start := time.Now()
		err := t.m.locks.Acquire(ctx, t.id, resource, mode)
		t.lockWaitNS += time.Since(start).Nanoseconds()
		return err
	}
	return t.m.locks.Acquire(ctx, t.id, resource, mode)
}

// TryLock acquires resource only if free (skip-locked scans).
func (t *Txn) TryLock(resource string, mode lock.Mode) error {
	if t.State() != Active {
		return ErrNotActive
	}
	return t.m.locks.TryAcquire(t.id, resource, mode)
}

// LogOp appends a redo record to the transaction. data is copied: the
// caller may reuse its buffer as soon as LogOp returns.
func (t *Txn) LogOp(rm string, data []byte) {
	if t.arena == nil {
		t.arena = enc.GetBuffer()
	}
	if t.ops == nil {
		t.ops = t.ops0[:0]
	}
	t.ops = append(t.ops, Op{RM: rm, Data: t.arena.Append(data)})
}

// Hook is one operation's stake in its transaction's outcome. A resource
// manager enlists one record per operation; the OnUndo, OnCommit and
// OnAbort closures are the same thing for operations too rare to deserve a
// type, and share the one ordered list.
type Hook interface {
	// Undo rolls back the operation's eager in-memory changes. Aborting
	// runs every Undo, in reverse order of enlistment.
	Undo()
	// Aborted runs after every Undo of an aborted transaction, in order
	// of enlistment.
	Aborted()
	// Committed runs after the commit record is logged, in order of
	// enlistment: it publishes the operation's changes (e.g. makes an
	// enqueued element visible).
	Committed()
}

// Enlist registers h for the transaction's outcome.
func (t *Txn) Enlist(h Hook) {
	if t.hooks == nil {
		t.hooks = t.hooks0[:0]
	}
	t.hooks = append(t.hooks, h)
}

// The closure forms of Hook: a func value is already a pointer, so
// enlisting one allocates nothing beyond the closure itself.
type (
	undoFunc   func()
	commitFunc func()
	abortFunc  func()
)

func (f undoFunc) Undo()        { f() }
func (undoFunc) Aborted()       {}
func (undoFunc) Committed()     {}
func (commitFunc) Undo()        {}
func (commitFunc) Aborted()     {}
func (f commitFunc) Committed() { f() }
func (abortFunc) Undo()         {}
func (f abortFunc) Aborted()    { f() }
func (abortFunc) Committed()    {}

// OnUndo registers a closure run (in reverse order) if the transaction
// aborts; resource managers use it to roll back eager in-memory changes.
func (t *Txn) OnUndo(f func()) { t.Enlist(undoFunc(f)) }

// OnCommit registers a closure run after the commit record is durable;
// resource managers use it to publish changes (e.g. make an enqueued
// element visible).
func (t *Txn) OnCommit(f func()) { t.Enlist(commitFunc(f)) }

// OnAbort registers a closure run after all undo closures on abort.
func (t *Txn) OnAbort(f func()) { t.Enlist(abortFunc(f)) }

func encodeOps(b *enc.Buffer, id uint64, ops []Op) {
	b.Uvarint(id)
	b.Uvarint(uint64(len(ops)))
	for _, op := range ops {
		b.String(op.RM)
		b.BytesField(op.Data)
	}
}

// decodeOps reads what encodeOps wrote, calling op for each operation with
// views into r's input.
func decodeOps(r *enc.Reader, op func(rm, data []byte) error) (id uint64, err error) {
	id = r.Uvarint()
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		rm := r.View()
		data := r.View()
		if r.Err() != nil {
			break
		}
		if err := op(rm, data); err != nil {
			return id, err
		}
	}
	return id, r.Err()
}

// Commit makes the transaction durable and visible: its redo ops are
// written as one log record, commit hooks run, and all locks release. A
// doomed transaction rolls back and reports ErrDoomed.
//
// The commit is *pipelined*: Append stages the record and returns a
// durable-LSN promise, after which effects become visible and every lock
// releases — the force wait happens at the very end, outside all locks,
// so the lock hold time does not include the fsync. Early release is
// safe because log order equals LSN order: any transaction that reads
// this one's effects commits at a later LSN, so a crash can never
// preserve the reader's commit while losing this one. Commit still returns only after
// the record is durable — the recoverable-request contract is about the
// acknowledgement, and the acknowledgement waits.
func (t *Txn) Commit() error {
	start := time.Now()
	t.doomMu.Lock()
	if st := t.State(); st != Active {
		t.doomMu.Unlock()
		return fmt.Errorf("%w: commit of %s txn %d", ErrNotActive, st, t.id)
	}
	if t.doomed {
		t.doomMu.Unlock()
		t.rollback()
		return fmt.Errorf("txn %d: %w", t.id, ErrDoomed)
	}
	sp, traced := t.m.tracer.Begin(t.traceRef, "txn.commit")
	var logNS int64
	t.m.commitGate.RLock()
	if len(t.ops) > 0 {
		// The payload handed to wal.Append is copied into the staged batch
		// before Append returns, so the buffer goes straight back.
		b := enc.GetBuffer()
		encodeOps(b, t.id, t.ops)
		var logStart time.Time
		if traced {
			logStart = time.Now()
		}
		lsn, err := t.m.log.Append(recCommit, b.Bytes())
		enc.PutBuffer(b)
		if traced {
			logNS = time.Since(logStart).Nanoseconds()
		}
		if err != nil {
			t.m.commitGate.RUnlock()
			t.doomMu.Unlock()
			// With a failed append the record cannot be trusted on disk,
			// so rolling back keeps memory consistent with what
			// recovery will reconstruct.
			t.rollback()
			return fmt.Errorf("txn %d: commit log: %w", t.id, err)
		}
		t.commitLSN = lsn
	}
	t.setState(Committed)
	t.doomMu.Unlock()
	for _, h := range t.hooks {
		h.Committed()
	}
	t.m.commitGate.RUnlock()
	if traced {
		sp.Annotate(
			trace.Int64("txn", int64(t.id)),
			trace.Int64("lsn", int64(t.commitLSN)),
			trace.Int64("log_ns", logNS),
			trace.Int64("lock_wait_ns", t.lockWaitNS),
		)
		t.m.tracer.Finish(&sp)
	}
	t.finish(true)
	if t.commitLSN != 0 {
		// The pipelined force wait: effects are visible and locks are
		// released; force the record (or wait for the flush covering it)
		// before acknowledging. On failure the log has
		// poisoned itself (sticky writer error — no later append can
		// succeed either), so the already-visible effects can never be
		// contradicted by a post-crash state that lost them and kept
		// something later.
		if err := t.m.log.SyncTo(t.commitLSN); err != nil {
			t.m.mCommitNanos.Observe(time.Since(start).Nanoseconds())
			return fmt.Errorf("txn %d: commit force: %w", t.id, err)
		}
	}
	t.m.mCommitNanos.Observe(time.Since(start).Nanoseconds())
	return nil
}

// Abort rolls back the transaction: undo closures run in reverse order,
// abort hooks run, and all locks release. Nothing is logged — an unlogged
// transaction is invisible to recovery by construction.
func (t *Txn) Abort() error {
	t.doomMu.Lock()
	if st := t.State(); st != Active {
		t.doomMu.Unlock()
		return fmt.Errorf("%w: abort of %s txn %d", ErrNotActive, st, t.id)
	}
	t.doomMu.Unlock()
	t.rollback()
	return nil
}

func (t *Txn) rollback() {
	t.doomMu.Lock()
	t.setState(Aborted)
	t.doomMu.Unlock()
	for i := len(t.hooks) - 1; i >= 0; i-- {
		t.hooks[i].Undo()
	}
	for _, h := range t.hooks {
		h.Aborted()
	}
	t.finish(false)
}

func (t *Txn) finish(committed bool) {
	t.m.locks.ReleaseAll(t.id)
	s := t.m.stripe(t.id)
	s.mu.Lock()
	delete(s.txns, t.id)
	s.mu.Unlock()
	if committed {
		t.m.mCommitted.Inc()
	} else {
		t.m.mAborted.Inc()
	}
	t.m.mActive.Add(-1)
	t.ops, t.hooks = nil, nil
	t.ops0, t.hooks0 = [2]Op{}, [2]Hook{}
	if t.arena != nil {
		enc.PutBuffer(t.arena)
		t.arena = nil
	}
}

// Prepare logs the transaction's redo ops as an in-doubt prepare record and
// moves it to the Prepared state. The coordinator name is recorded so
// recovery knows whom to ask. Locks remain held.
func (t *Txn) Prepare(coordinator string) error {
	start := time.Now()
	t.doomMu.Lock()
	if st := t.State(); st != Active {
		t.doomMu.Unlock()
		return fmt.Errorf("%w: prepare of %s txn %d", ErrNotActive, st, t.id)
	}
	if t.doomed {
		t.doomMu.Unlock()
		t.rollback()
		return fmt.Errorf("txn %d: %w", t.id, ErrDoomed)
	}
	sp, traced := t.m.tracer.Begin(t.traceRef, "txn.prepare")
	b := enc.NewBuffer(64)
	b.String(coordinator)
	encodeOps(b, t.id, t.ops)
	lsn, err := t.m.log.Append(recPrepare, b.Bytes())
	if err == nil {
		err = t.m.log.SyncTo(lsn)
	}
	if err != nil {
		t.doomMu.Unlock()
		t.rollback()
		return fmt.Errorf("txn %d: prepare log: %w", t.id, err)
	}
	t.prepareLSN = lsn
	t.commitLSN = lsn
	t.setState(Prepared)
	t.doomMu.Unlock()
	if traced {
		sp.Annotate(
			trace.Int64("txn", int64(t.id)),
			trace.Int64("lsn", int64(lsn)),
			trace.Str("coordinator", coordinator),
			trace.Int64("lock_wait_ns", t.lockWaitNS),
		)
		t.m.tracer.Finish(&sp)
	}
	t.m.mPrepared.Inc()
	t.m.mPrepNanos.Observe(time.Since(start).Nanoseconds())
	return nil
}

// OldestPrepareLSN returns the smallest prepare-record LSN among currently
// prepared transactions, or 0 if none. Log truncation must not remove
// segments at or after this LSN, or recovery would lose an in-doubt
// transaction.
func (m *Manager) OldestPrepareLSN() wal.LSN {
	var oldest wal.LSN
	m.eachActive(func(t *Txn) {
		if t.State() == Prepared && t.prepareLSN != 0 && (oldest == 0 || t.prepareLSN < oldest) {
			oldest = t.prepareLSN
		}
	})
	return oldest
}

// CommitPrepared completes a prepared transaction with a commit decision.
func (t *Txn) CommitPrepared() error {
	t.doomMu.Lock()
	if st := t.State(); st != Prepared {
		t.doomMu.Unlock()
		return fmt.Errorf("%w: txn %d is %s", ErrNotPrepared, t.id, st)
	}
	sp, traced := t.m.tracer.Begin(t.traceRef, "txn.commit")
	b := enc.NewBuffer(16)
	b.Uvarint(t.id)
	b.Bool(true)
	t.m.commitGate.RLock()
	lsn, err := t.m.log.Append(recDecision, b.Bytes())
	if err == nil {
		err = t.m.log.SyncTo(lsn)
	}
	if err != nil {
		t.m.commitGate.RUnlock()
		t.doomMu.Unlock()
		return fmt.Errorf("txn %d: decision log: %w", t.id, err)
	}
	t.commitLSN = lsn
	t.setState(Committed)
	t.doomMu.Unlock()
	for _, h := range t.hooks {
		h.Committed()
	}
	t.m.commitGate.RUnlock()
	if traced {
		sp.Annotate(
			trace.Int64("txn", int64(t.id)),
			trace.Int64("lsn", int64(lsn)),
			trace.Int64("prepared", 1),
		)
		t.m.tracer.Finish(&sp)
	}
	t.finish(true)
	return nil
}

// AbortPrepared completes a prepared transaction with an abort decision.
func (t *Txn) AbortPrepared() error {
	t.doomMu.Lock()
	if st := t.State(); st != Prepared {
		t.doomMu.Unlock()
		return fmt.Errorf("%w: txn %d is %s", ErrNotPrepared, t.id, st)
	}
	b := enc.NewBuffer(16)
	b.Uvarint(t.id)
	b.Bool(false)
	if lsn, err := t.m.log.Append(recDecision, b.Bytes()); err != nil {
		t.doomMu.Unlock()
		return fmt.Errorf("txn %d: decision log: %w", t.id, err)
	} else if err := t.m.log.SyncTo(lsn); err != nil {
		t.doomMu.Unlock()
		return fmt.Errorf("txn %d: decision sync: %w", t.id, err)
	}
	t.doomMu.Unlock()
	t.rollback()
	return nil
}

// InDoubt describes a prepared transaction reconstructed at recovery.
type InDoubt struct {
	Txn         *Txn
	Coordinator string
}

// RecoveryStats accounts for one Recover. Scan, Decode and Apply are the
// busy times of the three stages, which overlap: their sum may exceed Wall.
type RecoveryStats struct {
	Records int   // log records read
	Bytes   int64 // their framed size
	Scan    time.Duration
	Decode  time.Duration
	Apply   time.Duration
	Wall    time.Duration
	// PeakInFlight is the most record payload bytes that were at any
	// moment handed to the decode stage and not yet applied. The scan
	// stage reads one segment further ahead (see wal.Log.Scan).
	PeakInFlight int64
}

// redoStep is one decoded committed operation on its way to the applier.
type redoStep struct {
	rm   ResourceManager
	item any
}

// redoBatch is what one log segment decodes to: the unit handed from the
// decode stage to the apply stage.
type redoBatch struct {
	steps []redoStep
	bytes int64
}

// pendingPrepare is a prepare record no decision has resolved yet. It
// outlives the scan buffer it was read from, so it owns its bytes.
type pendingPrepare struct {
	coordinator string
	ops         []Op
	lsn         wal.LSN
}

// redoDecoder is the decode stage's state: it interprets the record
// stream — which transactions committed, which prepares are decided — and
// turns every operation that must be re-applied into a redoStep.
type redoDecoder struct {
	m       *Manager
	snapLSN wal.LSN
	maxID   uint64
	inDoubt map[uint64]*pendingPrepare
	order   []uint64 // prepare order, for deterministic reinstatement
	steps   []redoStep

	// What the stage reports when it is done.
	busy time.Duration
	peak int64
	scan wal.ScanStats
	err  error
}

// step decodes one committed operation and appends it to the batch.
func (d *redoDecoder) step(rmName, data []byte) error {
	rm, ok := d.m.rms[string(rmName)]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRM, rmName)
	}
	item, err := rm.DecodeRedo(data)
	if err != nil {
		return fmt.Errorf("txn: redo %s: %w", rmName, err)
	}
	d.steps = append(d.steps, redoStep{rm, item})
	return nil
}

func (d *redoDecoder) sawID(id uint64) {
	if id > d.maxID {
		d.maxID = id
	}
}

// record decodes one log record. Effects are emitted only for records
// beyond snapLSN: earlier committed effects are already in the snapshot.
func (d *redoDecoder) record(rec wal.Record) error {
	r := enc.NewReader(rec.Payload)
	switch rec.Type {
	case recCommit:
		if rec.LSN <= d.snapLSN {
			// Absorbed by the snapshot; only the id matters.
			d.sawID(r.Uvarint())
			if err := r.Err(); err != nil {
				return fmt.Errorf("txn: decode commit at %d: %w", rec.LSN, err)
			}
			return nil
		}
		id, err := decodeOps(r, d.step)
		if err != nil {
			return fmt.Errorf("txn: decode commit at %d: %w", rec.LSN, err)
		}
		d.sawID(id)
	case recPrepare:
		p := &pendingPrepare{coordinator: r.String(), lsn: rec.LSN}
		id, err := decodeOps(r, func(rm, data []byte) error {
			p.ops = append(p.ops, Op{RM: string(rm), Data: append([]byte(nil), data...)})
			return nil
		})
		if err != nil {
			return fmt.Errorf("txn: decode prepare at %d: %w", rec.LSN, err)
		}
		d.sawID(id)
		d.inDoubt[id] = p
		d.order = append(d.order, id)
	case recDecision:
		id := r.Uvarint()
		commit := r.Bool()
		if err := r.Err(); err != nil {
			return fmt.Errorf("txn: decode decision at %d: %w", rec.LSN, err)
		}
		p, ok := d.inDoubt[id]
		if !ok {
			return nil // repeated or already-resolved decision
		}
		delete(d.inDoubt, id)
		// Apply only if the decision is a commit that the snapshot has
		// not already absorbed (prepared effects enter the snapshot at
		// the moment the commit decision lands, so the decision LSN is
		// the visibility point).
		if commit && rec.LSN > d.snapLSN {
			for _, op := range p.ops {
				if err := d.step([]byte(op.RM), op.Data); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Recover rebuilds transactional state after a restart. snapLSN is the WAL
// position covered by the loaded snapshot (0 for none). The entire
// remaining log is scanned — truncation guarantees it still contains every
// record that matters — but effects are applied only for records with LSN
// beyond snapLSN, since earlier committed effects are already in the
// snapshot. Committed records re-apply through the registered resource
// managers; prepare records are held until a decision resolves them;
// unresolved prepares are re-instated as in-doubt transactions (effects
// re-applied as uncommitted via RedoPrepared, locks re-held) and returned
// for coordinator resolution (presumed abort).
//
// Replay is a three-stage pipeline with a segment of the log in each
// stage: wal.Log.Scan reads and checksums segment k+2 while a decode
// goroutine turns segment k+1 into redo steps (DecodeRedo) and the caller
// applies segment k's (ApplyRedo), strictly in LSN order. The hand-offs
// are unbuffered, so the log bytes in flight are bounded by three
// segments however long the log is.
func (m *Manager) Recover(snapLSN wal.LSN) ([]InDoubt, RecoveryStats, error) {
	start := time.Now()
	var st RecoveryStats
	d := &redoDecoder{m: m, snapLSN: snapLSN, inDoubt: make(map[uint64]*pendingPrepare)}

	batches := make(chan redoBatch)
	spent := make(chan []redoStep, 2) // applied batches' slices, for the decoder to refill
	stop := make(chan struct{})       // closed when the applier gives up
	var inFlight atomic.Int64
	go func() {
		defer close(batches)
		d.scan, d.err = m.log.Scan(1, func(seg []wal.Record) error {
			t0 := time.Now()
			var bytes int64
			for _, rec := range seg {
				bytes += int64(len(rec.Payload))
			}
			if n := inFlight.Add(bytes); n > d.peak {
				d.peak = n
			}
			select {
			case d.steps = <-spent:
			default:
				d.steps = nil
			}
			for _, rec := range seg {
				if err := d.record(rec); err != nil {
					return err
				}
			}
			d.busy += time.Since(t0)
			select {
			case batches <- redoBatch{d.steps, bytes}:
				return nil
			case <-stop:
				return errors.New("txn: recovery abandoned")
			}
		})
	}()
	var applyErr error
	for b := range batches {
		if applyErr != nil {
			continue // waiting for the decoder to leave
		}
		t0 := time.Now()
		for _, s := range b.steps {
			if err := s.rm.ApplyRedo(s.item); err != nil {
				applyErr = fmt.Errorf("txn: redo %s: %w", s.rm.RMName(), err)
				close(stop)
				break
			}
		}
		inFlight.Add(-b.bytes)
		clear(b.steps)
		spent <- b.steps[:0]
		st.Apply += time.Since(t0)
	}
	// batches is closed: the decode goroutine is gone and d is ours.
	st.Records, st.Bytes, st.Scan = d.scan.Records, d.scan.Bytes, d.scan.Busy
	st.Decode, st.PeakInFlight = d.busy, d.peak
	if applyErr != nil {
		return nil, st, applyErr
	}
	if d.err != nil {
		return nil, st, fmt.Errorf("txn: recovery: %w", d.err)
	}

	m.SetNextID(d.maxID + 1)

	var out []InDoubt
	for _, id := range d.order {
		p, ok := d.inDoubt[id]
		if !ok {
			continue
		}
		t := &Txn{m: m, id: id}
		for _, op := range p.ops {
			rm, ok := m.rms[op.RM]
			if !ok {
				return nil, st, fmt.Errorf("%w: %q", ErrUnknownRM, op.RM)
			}
			if err := rm.RedoPrepared(t, op.Data); err != nil {
				return nil, st, fmt.Errorf("txn: redo prepared %s: %w", op.RM, err)
			}
		}
		t.ops = p.ops
		t.prepareLSN = p.lsn
		t.setState(Prepared)
		s := m.stripe(id)
		s.mu.Lock()
		s.txns[id] = t
		s.mu.Unlock()
		// Reinstated in-doubt txns count as begun again in this incarnation
		// so the conservation law begun == committed+aborted+active holds
		// across restarts.
		m.mBegun.Inc()
		m.mActive.Add(1)
		out = append(out, InDoubt{Txn: t, Coordinator: p.coordinator})
	}
	st.Wall = time.Since(start)
	return out, st, nil
}
