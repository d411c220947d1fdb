package queue

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/enc"
	"repro/internal/lock"
	"repro/internal/obs"
	rlog "repro/internal/obs/log"
	"repro/internal/obs/trace"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// rmName identifies the repository's redo records in the shared log.
const rmName = "qm"

// regKey identifies a registration: a registrant is bound to one queue.
type regKey struct {
	queue      string
	registrant string
}

// registration is the persistent per-registrant state (Section 4.3).
type registration struct {
	key      regKey
	stable   bool
	hasLast  bool
	lastOp   OpType
	lastEID  EID
	lastTag  []byte
	lastElem []byte // stable copy of the last element operated on
}

func (g *registration) info() RegInfo {
	ri := RegInfo{HasLast: g.hasLast, LastOp: g.lastOp, LastEID: g.lastEID}
	if g.lastTag != nil {
		ri.LastTag = append([]byte(nil), g.lastTag...)
	}
	return ri
}

// trigger fires an enqueue when a watched queue's visible depth reaches a
// threshold — the paper's fork/join mechanism: "a trigger is set to send a
// request when all of the replies to earlier concurrent requests have been
// received" (Section 6).
type trigger struct {
	id        string
	watch     string
	threshold int32
	fire      Element // enqueued into fire.Queue when the trigger fires
}

// AlertFunc receives queue-depth alert notifications (Section 9's alert
// thresholds). It is called on its own goroutine.
type AlertFunc func(queue string, depth int)

// Options configure a Repository.
type Options struct {
	// Name is the repository's system-wide unique name (Section 4.1).
	Name string
	// NoFsync disables physical fsync (tests and benchmarks).
	NoFsync bool
	// SnapshotEvery takes a snapshot after this many logged operations;
	// zero disables automatic snapshots (Checkpoint can still be called).
	SnapshotEvery int
	// SegmentSize overrides the WAL segment size.
	SegmentSize int64
	// GroupCommit is ignored: every repository's log group-commits —
	// concurrent commits share fsyncs, a commit returns only after its
	// record is on disk, and locks release once the record is staged.
	//
	// Deprecated: it remains so that existing callers compile.
	GroupCommit bool
	// GroupCommitMaxDelay / GroupCommitMaxBatchBytes / GroupCommitMaxWaiters
	// tune when the log starts a flush; see wal.GroupCommitConfig. Zero
	// values mean flush as soon as a committer asks and none is in flight.
	GroupCommitMaxDelay      time.Duration
	GroupCommitMaxBatchBytes int
	GroupCommitMaxWaiters    int
	// WALFS, when non-nil, supplies the WAL's segment files; crash tests
	// interpose a fault layer (internal/chaos/walfault) here. nil means
	// the real filesystem.
	WALFS wal.VFS
	// WALGate, when non-nil, runs after every WAL flush reaches local
	// stable storage and before the covered durable-LSN promises are
	// released — the hook synchronous replication hangs its commit rule
	// on (see wal.Gate). A gate error poisons the log.
	WALGate wal.Gate
	// Metrics, when non-nil, is the registry all layers (WAL, lock, txn,
	// queue) record into. When nil the repository creates a private one,
	// retrievable via Metrics().
	Metrics *obs.Registry
	// Tracer, when non-nil, records request spans across the queue and
	// transaction layers. nil disables tracing; every trace check then
	// costs one nil test, keeping the hot paths unchanged.
	Tracer *trace.Tracer
	// Logger receives repository lifecycle events (recovery, checkpoints,
	// DDL, error-queue diversions) and is threaded into the WAL. Nil
	// disables logging; element hot paths never log regardless.
	Logger *rlog.Logger
}

// Repository is a queue repository: a named set of queues, registrations,
// key-value tables and triggers, durable via one write-ahead log.
//
// Concurrency control is striped per queue: mu guards only the queue map
// (DDL and checkpoints take it exclusively, element operations take it
// shared), and each queueState carries its own latch and condition
// variable so disjoint queues never serialize and a commit wakes only the
// affected queue's waiters. The full lock order is documented in shard.go.
type Repository struct {
	name   string
	dir    string
	opts   Options
	log    *wal.Log
	locks  *lock.Manager
	tm     *txn.Manager
	snap   *storage.Snapshotter
	reg    *obs.Registry
	tracer *trace.Tracer // nil when tracing is off
	logger *rlog.Logger  // nil-safe; cold paths only

	// mWaitNanos records how long blocking dequeuers waited for an
	// element to become visible.
	mWaitNanos *obs.Histogram
	// mShardWait records contended shard-lock acquisitions (uncontended
	// TryLock hits are not observed; see queueState.lock).
	mShardWait *obs.Histogram
	// mWakeTargeted / mWakeSpurious classify waiter wakeups: targeted
	// wakeups find an element on the rescan, spurious ones park again.
	// With per-queue signaling, commits on disjoint queues produce no
	// spurious wakeups at all (the thundering-herd regression test pins
	// this to zero).
	mWakeTargeted *obs.Counter
	mWakeSpurious *obs.Counter
	// mFastHits / mFastFallbacks classify completed auto-commit volatile
	// operations: a hit was served by a queue's lock-free ring (including
	// its authoritative empty answer), a fallback by the locked shard
	// path. Their sum equals the number of such operations — the
	// conservation law pinned by TestObsFastpathConservation.
	mFastHits      *obs.Counter
	mFastFallbacks *obs.Counter

	// Three groups of fields are on every operation's path, and each has
	// cache lines to itself so that where the allocator happens to put the
	// Repository cannot decide which of them collide: mu, whose reader
	// count every operation on every core writes; the read-only handles
	// below it; and the id counters further down, which only enqueuers
	// write. (Unpadded, a volatile two-queue workload ran 12 % faster or
	// slower depending on the struct's offset within a line.)
	_      [64]byte
	mu     sync.RWMutex // queue map + closed; never acquired under a shard lock
	closed bool
	_      [64]byte
	queues map[string]*queueState

	elems *elemTable // eid index, striped independently of the shards

	regMu sync.Mutex // registrations (leaf lock)
	regs  map[regKey]*registration

	trigMu   sync.Mutex // triggers (leaf lock)
	triggers map[string]*trigger
	// ntrig mirrors len(triggers) (refreshed under trigMu by
	// syncTrigCount) so the lock-free enqueue path can skip the trigger
	// check without taking trigMu.
	ntrig atomic.Int64

	kvMu   sync.Mutex // key-value tables (leaf lock)
	tables map[string]map[string][]byte

	_       [64]byte
	nextEID atomic.Uint64
	nextSeq atomic.Uint64
	opCount atomic.Int64 // logged ops since last snapshot
	_       [64]byte

	// intern shares the strings recovery would otherwise allocate once per
	// element: queue names and header keys. A pointer: the table is 4 KiB
	// the operation paths never touch.
	intern *enc.Interner
	// recovery is what Open's log replay cost (see the recovery.* gauges).
	recovery txn.RecoveryStats

	alertMu sync.Mutex
	alertFn AlertFunc
}

// Open opens (creating if necessary) the repository in dir and recovers it
// from its snapshot and log. It returns any in-doubt prepared transactions
// for the distributed-commit layer to resolve.
func Open(dir string, opts Options) (*Repository, []txn.InDoubt, error) {
	if opts.Name == "" {
		opts.Name = filepath.Base(dir)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{
		NoFsync:     opts.NoFsync,
		SegmentSize: opts.SegmentSize,
		Metrics:     reg,
		FS:          opts.WALFS,
		Logger:      opts.Logger,
		Gate:        opts.WALGate,
		GroupCommit: wal.GroupCommitConfig{
			MaxDelay:      opts.GroupCommitMaxDelay,
			MaxBatchBytes: opts.GroupCommitMaxBatchBytes,
			MaxWaiters:    opts.GroupCommitMaxWaiters,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	snap, err := storage.NewSnapshotter(filepath.Join(dir, "snap"), opts.NoFsync)
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	lm := lock.NewManagerWith(reg)
	r := &Repository{
		name:           opts.Name,
		dir:            dir,
		opts:           opts,
		log:            log,
		locks:          lm,
		tm:             txn.NewManagerWith(log, lm, reg),
		snap:           snap,
		reg:            reg,
		tracer:         opts.Tracer,
		logger:         opts.Logger.Named("queue"),
		mWaitNanos:     reg.Histogram("queue.dequeue_wait_ns"),
		mShardWait:     reg.Histogram("queue.shard_lock_wait_ns"),
		mWakeTargeted:  reg.Counter("queue.wakeups_targeted"),
		mWakeSpurious:  reg.Counter("queue.wakeups_spurious"),
		mFastHits:      reg.Counter("queue.fastpath_hits"),
		mFastFallbacks: reg.Counter("queue.fastpath_fallbacks"),
		queues:         make(map[string]*queueState),
		elems:          newElemTable(),
		regs:           make(map[regKey]*registration),
		triggers:       make(map[string]*trigger),
		tables:         make(map[string]map[string][]byte),
		intern:         new(enc.Interner),
	}
	r.nextEID.Store(1)
	r.nextSeq.Store(1)
	r.tm.RegisterRM(r)
	r.tm.SetTracer(opts.Tracer)

	// Recovery: snapshot, then log replay.
	var snapLSN wal.LSN
	data, lsn, err := snap.Load()
	switch err {
	case nil:
		if err := r.loadSnapshot(data); err != nil {
			log.Close()
			return nil, nil, err
		}
		snapLSN = wal.LSN(lsn)
	case storage.ErrNoSnapshot:
		// fresh repository
	default:
		log.Close()
		return nil, nil, err
	}
	inDoubt, rec, err := r.tm.Recover(snapLSN)
	if err != nil {
		log.Close()
		return nil, nil, fmt.Errorf("queue: recover %s: %w", opts.Name, err)
	}
	r.recovery = rec
	// Stage busy times overlap, so scan+decode+apply may exceed wall.
	reg.Gauge("recovery.scan_ns").Set(rec.Scan.Nanoseconds())
	reg.Gauge("recovery.decode_ns").Set(rec.Decode.Nanoseconds())
	reg.Gauge("recovery.apply_ns").Set(rec.Apply.Nanoseconds())
	reg.Gauge("recovery.wall_ns").Set(rec.Wall.Nanoseconds())
	reg.Gauge("recovery.records").Set(int64(rec.Records))
	reg.Gauge("recovery.bytes").Set(rec.Bytes)
	r.logger.Info("repository recovered",
		rlog.Str("name", r.name),
		rlog.Int("queues", len(r.queues)),
		rlog.Uint64("snapshot_lsn", uint64(snapLSN)),
		rlog.Uint64("next_lsn", uint64(log.NextLSN())),
		rlog.Int("in_doubt", len(inDoubt)),
		rlog.Int("records", rec.Records),
		rlog.Int64("bytes", rec.Bytes),
		rlog.Int64("scan_ns", rec.Scan.Nanoseconds()),
		rlog.Int64("decode_ns", rec.Decode.Nanoseconds()),
		rlog.Int64("apply_ns", rec.Apply.Nanoseconds()),
		rlog.Int64("wall_ns", rec.Wall.Nanoseconds()))
	return r, inDoubt, nil
}

// WALErr reports the durability plane's health: nil while the write-ahead
// log accepts appends, the sticky writer error once the group-commit
// writer has failed, ErrClosed after Close/Crash. /healthz probes this.
func (r *Repository) WALErr() error { return r.log.Err() }

// Closed reports whether the repository has been closed or crashed.
func (r *Repository) Closed() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.closed
}

// Name returns the repository's unique name.
func (r *Repository) Name() string { return r.name }

// TM returns the repository's transaction manager; servers begin their
// request-processing transactions through it.
func (r *Repository) TM() *txn.Manager { return r.tm }

// Locks returns the repository's lock manager, shared with application
// locks (Section 6).
func (r *Repository) Locks() *lock.Manager { return r.locks }

// Log exposes the write-ahead log for stats.
func (r *Repository) Log() *wal.Log { return r.log }

// Metrics returns the registry all of the repository's layers (WAL, lock
// manager, transaction manager, queues) record into.
func (r *Repository) Metrics() *obs.Registry { return r.reg }

// Tracer returns the repository's tracer (nil when tracing is off).
func (r *Repository) Tracer() *trace.Tracer { return r.tracer }

// SetAlertFunc installs the queue-depth alert callback.
func (r *Repository) SetAlertFunc(f AlertFunc) {
	r.alertMu.Lock()
	r.alertFn = f
	r.alertMu.Unlock()
}

// syncTrigCount refreshes the lock-free trigger-count gate. Call under
// trigMu after every mutation of r.triggers (loadSnapshot, which runs
// single-threaded before traffic, may call it unlocked).
func (r *Repository) syncTrigCount() {
	r.ntrig.Store(int64(len(r.triggers)))
}

// drainFastResident seals every queue that may hold ring-resident
// elements, materializing them in the locked lists and the eid index so
// eid-addressed operations (Read, KillElement) can find them; each queue
// reopens immediately if it turns out to be quiescent.
func (r *Repository) drainFastResident() {
	r.mu.RLock()
	var qss []*queueState
	for _, qs := range r.queues {
		if qs.ring != nil &&
			qs.fastEnqs.Load()-qs.fastDeqs.Load()-qs.fastDrained.Load() != 0 {
			qss = append(qss, qs)
		}
	}
	r.mu.RUnlock()
	for _, qs := range qss {
		qs.lock()
		qs.sealFastLocked()
		qs.maybeReopenFastLocked()
		qs.unlock()
	}
}

// wakeAllLocked wakes every parked waiter on every queue so they observe
// the closed flag. Caller holds r.mu exclusively.
func (r *Repository) wakeAllLocked() {
	for _, qs := range r.queues {
		qs.lock()
		qs.notifyLocked()
		qs.unlock()
	}
}

// Crash simulates a process failure: the write-ahead log is closed with no
// checkpoint, and the repository rejects further operations. All volatile
// state (in-flight transactions, volatile queues, unsnapshotted memory) is
// abandoned exactly as a real crash would abandon it; reopen the directory
// to recover. The chaos test harness is the intended caller.
func (r *Repository) Crash() {
	r.mu.Lock()
	r.closed = true
	r.wakeAllLocked()
	r.mu.Unlock()
	_ = r.log.Close()
	r.logger.Warn("repository crashed (simulated)", rlog.Str("name", r.name))
}

// Close snapshots and closes the repository.
func (r *Repository) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.wakeAllLocked()
	r.mu.Unlock()
	r.logger.Info("repository closing", rlog.Str("name", r.name))
	if err := r.Checkpoint(); err != nil {
		r.log.Close()
		return err
	}
	return r.log.Close()
}

// --- transactions ---

// Begin starts a transaction against this repository.
func (r *Repository) Begin() *txn.Txn { return r.tm.Begin() }

// autoTxn runs op inside t, or inside a fresh auto-commit transaction when
// t is nil (the paper's non-transactional front-end access). op must not
// commit or abort t itself.
func (r *Repository) autoTxn(t *txn.Txn, op func(t *txn.Txn) error) error {
	if t != nil {
		return op(t)
	}
	at := r.tm.Begin()
	if err := op(at); err != nil {
		// Roll back whatever the op half-did.
		_ = at.Abort()
		return err
	}
	return at.Commit()
}

// --- DDL ---

// CreateQueue creates a queue. DDL is always auto-committed.
func (r *Repository) CreateQueue(cfg QueueConfig) error {
	if cfg.Name == "" {
		return fmt.Errorf("queue: empty queue name")
	}
	return r.autoTxn(nil, func(t *txn.Txn) error {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.closed {
			return ErrClosed
		}
		if _, ok := r.queues[cfg.Name]; ok {
			return fmt.Errorf("%w: %s", ErrQueueExists, cfg.Name)
		}
		qs := r.newQueueState(cfg)
		r.queues[cfg.Name] = qs
		t.OnUndo(func() {
			r.mu.Lock()
			delete(r.queues, cfg.Name)
			r.mu.Unlock()
		})
		b := enc.NewBuffer(32)
		b.Uint8(opCreateQueue)
		encodeConfig(b, &cfg)
		r.logOp(t, b.Bytes())
		r.logger.Info("queue created",
			rlog.Str("queue", cfg.Name), rlog.Bool("volatile", cfg.Volatile))
		return nil
	})
}

// DestroyQueue removes a queue and its elements. It fails with ErrBusy if
// any element is held by an in-flight transaction.
func (r *Repository) DestroyQueue(name string) error {
	return r.autoTxn(nil, func(t *txn.Txn) error {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.closed {
			return ErrClosed
		}
		qs, ok := r.queues[name]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoQueue, name)
		}
		qs.lock()
		qs.sealFastLocked() // ring-resident elements must be found and doomed
		var doomed []*elem
		for _, l := range qs.lists {
			for el := l.head; el != nil; el = el.next {
				if el.state != stateVisible {
					qs.unlock()
					return fmt.Errorf("%w: %s has in-flight elements", ErrBusy, name)
				}
				doomed = append(doomed, el)
			}
		}
		delete(r.queues, name)
		qs.dead = true
		qs.m.depth.Add(-int64(qs.stats.Depth)) // gauge reflects live queues only
		qs.notifyLocked()                      // parked waiters re-resolve and fail
		qs.unlock()
		for _, el := range doomed {
			r.elems.del(el.eid)
		}
		t.OnUndo(func() {
			r.mu.Lock()
			r.queues[name] = qs
			qs.lock()
			qs.dead = false
			qs.m.depth.Add(int64(qs.stats.Depth))
			qs.unlock()
			for _, el := range doomed {
				r.elems.put(el.eid, el)
			}
			r.mu.Unlock()
		})
		b := enc.NewBuffer(16)
		b.Uint8(opDestroyQueue)
		b.String(name)
		r.logOp(t, b.Bytes())
		r.logger.Info("queue destroyed",
			rlog.Str("queue", name), rlog.Int("dropped", len(doomed)))
		return nil
	})
}

// UpdateQueueConfig modifies a queue's tunables in place (the "modify"
// data-definition operation of Section 4.1): error queue, retry limit,
// strict-FIFO mode, redirection, alert threshold, and max depth. The name
// and volatility are immutable.
func (r *Repository) UpdateQueueConfig(cfg QueueConfig) error {
	return r.autoTxn(nil, func(t *txn.Txn) error {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.closed {
			return ErrClosed
		}
		qs, ok := r.queues[cfg.Name]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoQueue, cfg.Name)
		}
		qs.lock()
		// The new config may be ring-ineligible (MaxDepth, alerts,
		// redirection, strict FIFO): seal first so its constraints see the
		// complete locked state, then let the queue reopen if the new
		// config still allows it.
		qs.sealFastLocked()
		prev := qs.cfg
		cfg.Volatile = prev.Volatile // immutable
		qs.cfg = cfg
		qs.notifyLocked() // strict-FIFO relaxation may unblock waiters
		qs.maybeReopenFastLocked()
		qs.unlock()
		t.OnUndo(func() {
			r.mu.Lock()
			qs.lock()
			qs.sealFastLocked()
			qs.cfg = prev
			qs.maybeReopenFastLocked()
			qs.unlock()
			r.mu.Unlock()
		})
		b := enc.NewBuffer(64)
		b.Uint8(opUpdateQueue)
		encodeConfig(b, &cfg)
		r.logOp(t, b.Bytes())
		return nil
	})
}

// StopQueue pauses dequeues from a queue; enqueues still succeed.
func (r *Repository) StopQueue(name string) error { return r.setStopped(name, true) }

// StartQueue resumes dequeues from a stopped queue.
func (r *Repository) StartQueue(name string) error { return r.setStopped(name, false) }

func (r *Repository) setStopped(name string, stopped bool) error {
	return r.autoTxn(nil, func(t *txn.Txn) error {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.closed {
			return ErrClosed
		}
		qs, ok := r.queues[name]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoQueue, name)
		}
		qs.lock()
		prev := qs.stopped
		qs.stopped = stopped
		// A stop must seal: the ring dequeue path checks no flags, so the
		// only way to make it observe ErrStopped is to close the fast gate
		// and let the locked path answer. A start may reopen.
		if stopped {
			qs.sealFastLocked()
		} else {
			qs.maybeReopenFastLocked()
		}
		// Wake parked waiters in both directions: a start lets them race
		// for elements, a stop lets them observe ErrStopped instead of
		// sleeping forever (with per-queue signaling there is no global
		// broadcast to rescue them by accident).
		qs.notifyLocked()
		qs.unlock()
		t.OnUndo(func() {
			r.mu.Lock()
			qs.lock()
			qs.stopped = prev
			if prev {
				qs.sealFastLocked()
			} else {
				qs.maybeReopenFastLocked()
			}
			qs.unlock()
			r.mu.Unlock()
		})
		b := enc.NewBuffer(16)
		b.Uint8(opSetStopped)
		b.String(name)
		b.Bool(stopped)
		r.logOp(t, b.Bytes())
		return nil
	})
}

// Queues lists queue names.
func (r *Repository) Queues() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.queues))
	for name := range r.queues {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats returns a queue's counters. It takes only the repository read
// lock and the queue's shard lock, so monitoring never stalls traffic on
// other queues.
func (r *Repository) Stats(name string) (QueueStats, error) {
	r.mu.RLock()
	qs, ok := r.queues[name]
	if !ok {
		r.mu.RUnlock()
		return QueueStats{}, fmt.Errorf("%w: %s", ErrNoQueue, name)
	}
	qs.lock()
	r.mu.RUnlock()
	st := qs.stats
	// Fold in lock-free fast-path traffic, which bypasses the locked
	// counters: ring pushes/pops count as enqueues/dequeues, and elements
	// currently ring-resident (pushed, not popped, not drained into the
	// lists by a seal) add to Depth. The three loads are unordered with
	// respect to in-flight ring ops, so the residual is clamped; at
	// quiescence it is exact.
	fe := qs.fastEnqs.Load()
	fd := qs.fastDeqs.Load()
	dr := qs.fastDrained.Load()
	qs.unlock()
	st.Enqueues += fe
	st.Dequeues += fd
	if res := int64(fe) - int64(fd) - int64(dr); res > 0 {
		st.Depth += int(res)
	}
	if st.Depth > st.MaxDepth {
		st.MaxDepth = st.Depth
	}
	return st, nil
}

// Depth returns a queue's visible depth. It is lock-free past the queue
// lookup: the depth gauge is maintained atomically under the shard lock,
// so monitoring reads never contend with enqueues and dequeues at all.
func (r *Repository) Depth(name string) (int, error) {
	r.mu.RLock()
	qs, ok := r.queues[name]
	r.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoQueue, name)
	}
	return int(qs.m.depth.Value()), nil
}

// Config returns a queue's configuration.
func (r *Repository) Config(name string) (QueueConfig, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	qs, ok := r.queues[name]
	if !ok {
		return QueueConfig{}, fmt.Errorf("%w: %s", ErrNoQueue, name)
	}
	return qs.cfg, nil
}

// ListElements returns up to max elements of a queue in dequeue order
// (copies; diagnostic use).
func (r *Repository) ListElements(name string, max int) ([]Element, error) {
	r.mu.RLock()
	qs, ok := r.queues[name]
	if !ok {
		r.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", ErrNoQueue, name)
	}
	qs.lock()
	r.mu.RUnlock()
	defer qs.unlock()
	qs.sealFastLocked() // diagnostics must see ring-resident elements too
	var out []Element
	for _, prio := range qs.prios {
		for el := qs.lists[prio].head; el != nil; el = el.next {
			if el.state == statePending {
				continue
			}
			out = append(out, el.element(false))
			if max > 0 && len(out) >= max {
				return out, nil
			}
		}
	}
	return out, nil
}

// logOp attaches a redo op to t and counts it toward the snapshot
// cadence. Called with no shard lock held: records are staged here and
// appended to the WAL by the transaction's commit, so the log write never
// happens inside a queue critical section.
func (r *Repository) logOp(t *txn.Txn, data []byte) {
	t.LogOp(rmName, data)
	r.opCount.Add(1)
}

// maybeSnapshot is called with no locks held after committing an auto-op;
// it takes a checkpoint when the configured cadence is reached.
func (r *Repository) maybeSnapshot() {
	every := r.opts.SnapshotEvery
	if every <= 0 {
		return
	}
	for {
		c := r.opCount.Load()
		if int(c) < every {
			return
		}
		if r.opCount.CompareAndSwap(c, 0) {
			_ = r.Checkpoint() // best effort; next cadence retries
			return
		}
	}
}

// fireAlert delivers a depth alert without holding locks.
func (r *Repository) fireAlert(queue string, depth int) {
	r.alertMu.Lock()
	f := r.alertFn
	r.alertMu.Unlock()
	if f != nil {
		go f(queue, depth)
	}
}

// --- snapshots ---

// Checkpoint serializes committed state, writes a snapshot, and truncates
// the log below min(snapshot LSN, oldest outstanding prepare). Quiescing
// is hierarchical: BlockCommits excludes commit hooks, the exclusive repo
// lock excludes DDL and new element operations, and the ordered sweep of
// every shard lock excludes in-flight abort hooks (which are not gated by
// BlockCommits and can move elements across queues).
func (r *Repository) Checkpoint() error {
	var data []byte
	var lastLSN, cutoff wal.LSN
	err := r.tm.BlockCommits(func() error {
		r.mu.Lock()
		defer r.mu.Unlock()
		names := make([]string, 0, len(r.queues))
		for name := range r.queues {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			r.queues[name].lock()
		}
		data = r.serializeLocked(names)
		for i := len(names) - 1; i >= 0; i-- {
			r.queues[names[i]].unlock()
		}
		lastLSN = r.log.LastLSN()
		cutoff = lastLSN + 1
		if p := r.tm.OldestPrepareLSN(); p != 0 && p < cutoff {
			cutoff = p
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := r.snap.Write(uint64(lastLSN), data); err != nil {
		return fmt.Errorf("queue: checkpoint %s: %w", r.name, err)
	}
	if err := r.log.TruncateBefore(cutoff); err != nil {
		return fmt.Errorf("queue: truncate %s: %w", r.name, err)
	}
	r.logger.Debug("checkpoint written",
		rlog.Uint64("lsn", uint64(lastLSN)),
		rlog.Uint64("truncate_below", uint64(cutoff)),
		rlog.Int("bytes", len(data)))
	return nil
}

// snapVersion 2 appends a trace tail (enc.TraceTail) after every
// encoded element — queue elements and trigger fire elements — so
// traces survive snapshot-based recovery. Version-1 snapshots (no
// tails) still load.
const snapVersion = 2

// serializeLocked encodes committed state only: pending elements are
// omitted (their transactions haven't committed), dequeued elements are
// written as visible (their committed state is "still in the queue"; the
// dequeuer's commit record, if any, has a later LSN and will be replayed).
// Caller holds r.mu exclusively plus every shard lock, with names the
// sorted queue names; the leaf locks are taken per section here.
func (r *Repository) serializeLocked(names []string) []byte {
	b := enc.NewBuffer(4096)
	b.Uint8(snapVersion)
	b.String(r.name)
	b.Uvarint(r.nextEID.Load())
	b.Uvarint(r.nextSeq.Load())
	b.Uvarint(r.tm.NextID())

	// Queues: definitions of volatile queues are durable, their contents
	// are not.
	b.Uvarint(uint64(len(names)))
	for _, name := range names {
		qs := r.queues[name]
		encodeConfig(b, &qs.cfg)
		b.Bool(qs.stopped)
		var els []*elem
		if !qs.volatile {
			for _, prio := range qs.prios {
				for el := qs.lists[prio].head; el != nil; el = el.next {
					if el.state == statePending {
						continue
					}
					els = append(els, el)
				}
			}
		}
		b.Uvarint(uint64(len(els)))
		for _, el := range els {
			encodeElement(b, el, name)
			encodeTraceTail(b, el)
		}
	}

	// Registrations.
	r.regMu.Lock()
	var rkeys []regKey
	for k := range r.regs {
		rkeys = append(rkeys, k)
	}
	sort.Slice(rkeys, func(i, j int) bool {
		if rkeys[i].queue != rkeys[j].queue {
			return rkeys[i].queue < rkeys[j].queue
		}
		return rkeys[i].registrant < rkeys[j].registrant
	})
	b.Uvarint(uint64(len(rkeys)))
	for _, k := range rkeys {
		g := r.regs[k]
		b.String(k.queue)
		b.String(k.registrant)
		b.Bool(g.stable)
		b.Bool(g.hasLast)
		b.Uint8(uint8(g.lastOp))
		b.Uvarint(uint64(g.lastEID))
		b.BytesField(g.lastTag)
		b.BytesField(g.lastElem)
	}
	r.regMu.Unlock()

	// Triggers.
	r.trigMu.Lock()
	var tids []string
	for id := range r.triggers {
		tids = append(tids, id)
	}
	sort.Strings(tids)
	b.Uvarint(uint64(len(tids)))
	for _, id := range tids {
		tr := r.triggers[id]
		b.String(tr.id)
		b.String(tr.watch)
		b.Varint(int64(tr.threshold))
		encodeDetached(b, &tr.fire, true)
	}
	r.trigMu.Unlock()

	// Tables.
	r.kvMu.Lock()
	var tnames []string
	for name := range r.tables {
		tnames = append(tnames, name)
	}
	sort.Strings(tnames)
	b.Uvarint(uint64(len(tnames)))
	for _, name := range tnames {
		tbl := r.tables[name]
		b.String(name)
		var keys []string
		for k := range tbl {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			b.String(k)
			b.BytesField(tbl[k])
		}
	}
	r.kvMu.Unlock()
	return b.Bytes()
}

// loadSnapshot rebuilds state from a snapshot. It runs single-threaded
// inside Open, before any API traffic, so no locks are taken.
func (r *Repository) loadSnapshot(data []byte) error {
	rd := enc.NewReader(data)
	v := rd.Uint8()
	if v != 1 && v != snapVersion {
		return fmt.Errorf("queue: snapshot version %d unsupported", v)
	}
	hasTrace := v >= 2
	r.name = rd.String()
	r.nextEID.Store(rd.Uvarint())
	r.nextSeq.Store(rd.Uvarint())
	r.tm.SetNextID(rd.Uvarint())

	nq := rd.Uvarint()
	for i := uint64(0); i < nq && rd.Err() == nil; i++ {
		cfg := decodeConfig(rd)
		qs := r.newQueueState(cfg)
		qs.stopped = rd.Bool()
		r.queues[cfg.Name] = qs
		ne := rd.Uvarint()
		for j := uint64(0); j < ne && rd.Err() == nil; j++ {
			// Snapshot-loaded elements predate this process: any server
			// that dequeues one is re-executing after a crash.
			el := &elem{state: stateVisible, redelivered: true}
			if _, err := decodeElement(rd, r.intern, el); err != nil {
				return fmt.Errorf("queue: snapshot element: %w", err)
			}
			if hasTrace {
				decodeTraceTail(rd, el)
			}
			el.q.Store(qs)
			qs.insert(el)
			qs.bumpDepth(1)
			r.elems.put(el.eid, el)
		}
	}

	nr := rd.Uvarint()
	for i := uint64(0); i < nr && rd.Err() == nil; i++ {
		k := regKey{queue: rd.String(), registrant: rd.String()}
		g := &registration{key: k}
		g.stable = rd.Bool()
		g.hasLast = rd.Bool()
		g.lastOp = OpType(rd.Uint8())
		g.lastEID = EID(rd.Uvarint())
		g.lastTag = rd.BytesField()
		g.lastElem = rd.BytesField()
		r.regs[k] = g
	}

	nt := rd.Uvarint()
	for i := uint64(0); i < nt && rd.Err() == nil; i++ {
		tr := &trigger{}
		tr.id = rd.String()
		tr.watch = rd.String()
		tr.threshold = int32(rd.Varint())
		var err error
		if tr.fire, err = decodeDetached(rd, r.intern, hasTrace); err != nil {
			return fmt.Errorf("queue: snapshot trigger: %w", err)
		}
		r.triggers[tr.id] = tr
	}
	r.syncTrigCount() // single-threaded inside Open; no trigMu needed

	ntbl := rd.Uvarint()
	for i := uint64(0); i < ntbl && rd.Err() == nil; i++ {
		name := rd.String()
		nk := rd.Uvarint()
		tbl := make(map[string][]byte, nk)
		for j := uint64(0); j < nk && rd.Err() == nil; j++ {
			k := rd.String()
			tbl[k] = rd.BytesField()
		}
		r.tables[name] = tbl
	}
	if err := rd.Finish(); err != nil {
		return fmt.Errorf("queue: snapshot decode: %w", err)
	}
	return nil
}
