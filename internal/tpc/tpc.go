// Package tpc implements two-phase commit over the transaction manager's
// prepare/decide interface.
//
// The paper needs distributed transactions when a server's single
// transaction spans queue repositories — dequeue a request from one node's
// queue and enqueue the reply into another's (Sections 5–6). A Coordinator
// drives the protocol with presumed abort: only commit decisions are
// logged durably; a recovering participant whose coordinator has no record
// of its transaction aborts it.
package tpc

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/enc"
	rlog "repro/internal/obs/log"
	"repro/internal/obs/trace"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Errors returned by the coordinator.
var (
	// ErrAborted reports that the global transaction aborted (a participant
	// failed to prepare, or Abort was called).
	ErrAborted = errors.New("tpc: aborted")
	// ErrDone reports reuse of a finished global transaction.
	ErrDone = errors.New("tpc: already finished")
)

// Branch is one participant branch of a global transaction. A local branch
// wraps a *txn.Txn; remote branches would proxy these calls over RPC.
type Branch interface {
	// BranchName identifies the participant (diagnostics).
	BranchName() string
	// Prepare makes the branch's effects stable-but-undecided; after a
	// successful Prepare the branch must be able to commit or abort even
	// across a crash.
	Prepare(coordinator string) error
	// CommitPrepared finalises a prepared branch with a commit.
	CommitPrepared() error
	// AbortPrepared finalises a prepared branch with an abort.
	AbortPrepared() error
	// Abort rolls back an unprepared branch.
	Abort() error
}

// LocalBranch adapts a local transaction to the Branch interface.
type LocalBranch struct {
	Label string
	Txn   *txn.Txn
}

// BranchName implements Branch.
func (b *LocalBranch) BranchName() string { return b.Label }

// Prepare implements Branch.
func (b *LocalBranch) Prepare(coordinator string) error { return b.Txn.Prepare(coordinator) }

// CommitPrepared implements Branch.
func (b *LocalBranch) CommitPrepared() error { return b.Txn.CommitPrepared() }

// AbortPrepared implements Branch.
func (b *LocalBranch) AbortPrepared() error { return b.Txn.AbortPrepared() }

// Abort implements Branch.
func (b *LocalBranch) Abort() error { return b.Txn.Abort() }

// Coordinator log record types.
const (
	recCommitDecision uint8 = 1
	// recSeqFloor reserves a block of sequence numbers: after recovery the
	// next gtid starts at the floor, so the seq of an aborted (never
	// logged, presumed abort) transaction is never reissued — a reissued
	// seq could wrongly commit an old in-doubt prepare.
	recSeqFloor uint8 = 2
)

// seqBlock is how many sequence numbers each floor record reserves.
const seqBlock = 4096

// Coordinator assigns global transaction ids and durably records commit
// decisions. Its name must be system-wide unique; participants store
// "<name>/<gtid-seq>" in their prepare records and route recovery queries
// back by name.
type Coordinator struct {
	name string
	log  *wal.Log

	mu        sync.Mutex
	nextSeq   uint64
	seqCeil   uint64          // reserved up to (exclusive)
	decisions map[uint64]bool // seq -> committed (presumed abort: only true stored)
	tracer    *trace.Tracer   // nil-safe; records tpc.commit spans
	logger    *rlog.Logger    // nil-safe; decision/abort events

	commits uint64
	aborts  uint64
}

// SetLogger installs the logger recording commit decisions and phase-2
// failures (nil disables).
func (c *Coordinator) SetLogger(l *rlog.Logger) {
	c.mu.Lock()
	c.logger = l.Named("tpc")
	c.mu.Unlock()
}

func (c *Coordinator) getLogger() *rlog.Logger {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logger
}

// SetTracer installs the tracer recording two-phase-commit spans for
// traced global transactions (nil disables).
func (c *Coordinator) SetTracer(tr *trace.Tracer) {
	c.mu.Lock()
	c.tracer = tr
	c.mu.Unlock()
}

func (c *Coordinator) getTracer() *trace.Tracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tracer
}

// OpenCoordinator opens (or creates) a coordinator named name with its
// decision log in dir.
func OpenCoordinator(name, dir string, noFsync bool) (*Coordinator, error) {
	log, err := wal.Open(dir, wal.Options{NoFsync: noFsync})
	if err != nil {
		return nil, err
	}
	c := &Coordinator{name: name, log: log, nextSeq: 1, decisions: make(map[uint64]bool)}
	recs, err := log.ReadFrom(1)
	if err != nil {
		log.Close()
		return nil, err
	}
	for _, rec := range recs {
		r := enc.NewReader(rec.Payload)
		seq := r.Uvarint()
		if r.Err() != nil {
			continue
		}
		switch rec.Type {
		case recCommitDecision:
			c.decisions[seq] = true
			if seq >= c.nextSeq {
				c.nextSeq = seq + 1
			}
		case recSeqFloor:
			if seq > c.nextSeq {
				c.nextSeq = seq
			}
		}
	}
	return c, nil
}

// reserveLocked ensures nextSeq is inside a durably reserved block.
func (c *Coordinator) reserveLocked() error {
	if c.nextSeq < c.seqCeil {
		return nil
	}
	ceil := c.nextSeq + seqBlock
	b := enc.NewBuffer(12)
	b.Uvarint(ceil)
	if err := c.logDurably(recSeqFloor, b.Bytes()); err != nil {
		return err
	}
	c.seqCeil = ceil
	return nil
}

// logDurably appends one record and forces it: the coordinator acts on
// a reservation or a decision only once it would survive a crash.
// Concurrent global transactions' decisions share flushes.
func (c *Coordinator) logDurably(typ uint8, payload []byte) error {
	lsn, err := c.log.Append(typ, payload)
	if err == nil {
		err = c.log.SyncTo(lsn)
	}
	return err
}

// Name returns the coordinator's unique name.
func (c *Coordinator) Name() string { return c.name }

// Log exposes the decision log (stats).
func (c *Coordinator) Log() *wal.Log { return c.log }

// Close closes the decision log.
func (c *Coordinator) Close() error { return c.log.Close() }

// Stats returns commit/abort counters since open.
func (c *Coordinator) Stats() (commits, aborts uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commits, c.aborts
}

// GlobalTxn is one global transaction.
type GlobalTxn struct {
	c        *Coordinator
	seq      uint64
	branches []Branch
	done     bool
	// reserveErr poisons the transaction when its sequence number could
	// not be durably reserved: committing with an unreserved seq could
	// reissue it after a crash and wrongly resolve an old in-doubt
	// prepare. Commit refuses and aborts instead.
	reserveErr error
	ref        trace.Ref // request trace driving this global transaction
}

// SetTrace attaches the driving request's trace context; Commit then
// records a "tpc.commit" span (gtid, branch count, outcome) under it.
func (g *GlobalTxn) SetTrace(ref trace.Ref) { g.ref = ref }

// Begin starts a global transaction. Its sequence number comes from a
// durably reserved block, so it can never be reissued after a crash.
func (c *Coordinator) Begin() *GlobalTxn {
	c.mu.Lock()
	err := c.reserveLocked()
	seq := c.nextSeq
	c.nextSeq++
	c.mu.Unlock()
	return &GlobalTxn{c: c, seq: seq, reserveErr: err}
}

// GTID returns the transaction's global id ("<coordinator>/<seq>").
func (g *GlobalTxn) GTID() string { return fmt.Sprintf("%s/%d", g.c.name, g.seq) }

// Enlist adds a branch. All branches must be enlisted before Commit.
func (g *GlobalTxn) Enlist(b Branch) { g.branches = append(g.branches, b) }

// Commit runs two-phase commit: prepare every branch; durably log the
// commit decision; then commit every branch. If any prepare fails, every
// branch aborts and ErrAborted is returned (wrapping the cause).
func (g *GlobalTxn) Commit() error {
	if g.done {
		return ErrDone
	}
	g.done = true
	tr := g.c.getTracer()
	outcome := "abort"
	sp, traced := tr.Begin(g.ref, "tpc.commit")
	if traced {
		sp.Annotate(trace.Str("gtid", g.GTID()), trace.Int64("branches", int64(len(g.branches))))
		defer func() {
			sp.Annotate(trace.Str("outcome", outcome))
			tr.Finish(&sp)
		}()
	}
	if g.reserveErr != nil {
		for _, b := range g.branches {
			_ = b.Abort()
		}
		g.c.mu.Lock()
		g.c.aborts++
		g.c.mu.Unlock()
		return fmt.Errorf("%w: seq reservation: %v", ErrAborted, g.reserveErr)
	}
	// Phase 1: prepare.
	for i, b := range g.branches {
		if err := b.Prepare(g.GTID()); err != nil {
			// Branch i failed (and rolled itself back). Abort the prepared
			// prefix and the unprepared suffix.
			for j, other := range g.branches {
				if j < i {
					_ = other.AbortPrepared()
				} else if j > i {
					_ = other.Abort()
				}
			}
			g.c.mu.Lock()
			g.c.aborts++
			g.c.mu.Unlock()
			return fmt.Errorf("%w: prepare %s: %v", ErrAborted, b.BranchName(), err)
		}
	}
	// Decision point: durable commit record.
	buf := enc.NewBuffer(12)
	buf.Uvarint(g.seq)
	if err := g.c.logDurably(recCommitDecision, buf.Bytes()); err != nil {
		// Decision not durable: presumed abort.
		for _, b := range g.branches {
			_ = b.AbortPrepared()
		}
		g.c.mu.Lock()
		g.c.aborts++
		g.c.mu.Unlock()
		g.c.getLogger().Error("commit decision not durable; presumed abort",
			rlog.Uint64("seq", g.seq), rlog.Err(err))
		return fmt.Errorf("%w: decision log: %v", ErrAborted, err)
	}
	g.c.mu.Lock()
	g.c.decisions[g.seq] = true
	g.c.commits++
	g.c.mu.Unlock()
	outcome = "commit"
	// Phase 2: commit. Failures here are participant-local; the decision
	// stands and recovery will finish the job.
	for _, b := range g.branches {
		_ = b.CommitPrepared()
	}
	return nil
}

// Abort rolls back every branch without logging (presumed abort).
func (g *GlobalTxn) Abort() error {
	if g.done {
		return ErrDone
	}
	g.done = true
	for _, b := range g.branches {
		_ = b.Abort()
	}
	g.c.mu.Lock()
	g.c.aborts++
	g.c.mu.Unlock()
	return nil
}

// Committed answers a recovery query: did the global transaction with this
// gtid commit? Unknown gtids are presumed aborted.
func (c *Coordinator) Committed(gtid string) bool {
	name, seq, ok := SplitGTID(gtid)
	if !ok || name != c.name {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decisions[seq]
}

// SplitGTID parses "<coordinator>/<seq>".
func SplitGTID(gtid string) (name string, seq uint64, ok bool) {
	i := strings.LastIndexByte(gtid, '/')
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.ParseUint(gtid[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return gtid[:i], n, true
}

// Resolver answers whether a gtid committed; a Coordinator is one, and a
// registry of coordinators is another.
type Resolver interface {
	Committed(gtid string) bool
}

// ResolveInDoubt finishes recovered in-doubt transactions: each one is
// committed if its coordinator's decision log says so, otherwise aborted
// (presumed abort). It returns the counts.
func ResolveInDoubt(inDoubt []txn.InDoubt, r Resolver) (committed, aborted int) {
	for _, d := range inDoubt {
		if r.Committed(d.Coordinator) {
			if err := d.Txn.CommitPrepared(); err == nil {
				committed++
			}
		} else {
			if err := d.Txn.AbortPrepared(); err == nil {
				aborted++
			}
		}
	}
	return committed, aborted
}

// Registry maps coordinator names to resolvers, so a node hosting several
// coordinators (or proxies to remote ones) can resolve any gtid.
type Registry struct {
	mu sync.RWMutex
	m  map[string]Resolver
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]Resolver)} }

// Add registers a resolver under its coordinator name.
func (r *Registry) Add(name string, res Resolver) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[name] = res
}

// Committed implements Resolver: unknown coordinators presume abort.
func (r *Registry) Committed(gtid string) bool {
	name, _, ok := SplitGTID(gtid)
	if !ok {
		return false
	}
	r.mu.RLock()
	res := r.m[name]
	r.mu.RUnlock()
	if res == nil {
		return false
	}
	return res.Committed(gtid)
}
