package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/enc"
	"repro/internal/lock"
	"repro/internal/wal"
)

// kvRM is a miniature transactional map used to exercise the manager: eager
// apply with undo closures, redo records of the form "set k v" / "del k".
type kvRM struct {
	mu   sync.Mutex
	data map[string]string
	// decodes and redos count DecodeRedo and ApplyRedo calls. Recover makes
	// them on different goroutines, hence the atomics.
	decodes, redos atomic.Int64
}

func newKVRM() *kvRM { return &kvRM{data: make(map[string]string)} }

func (r *kvRM) RMName() string { return "kv" }

func (r *kvRM) encodeSet(k, v string) []byte {
	b := enc.NewBuffer(16)
	b.Uint8(1)
	b.String(k)
	b.String(v)
	return b.Bytes()
}

func (r *kvRM) applySet(k, v string) (undo func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, had := r.data[k]
	r.data[k] = v
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if had {
			r.data[k] = old
		} else {
			delete(r.data, k)
		}
	}
}

// Set performs a transactional set: lock, eager apply, undo, redo record.
func (r *kvRM) Set(t *Txn, k, v string) error {
	if err := t.Lock(context.Background(), "kv/"+k, lock.Exclusive); err != nil {
		return err
	}
	undo := r.applySet(k, v)
	t.OnUndo(undo)
	t.LogOp("kv", r.encodeSet(k, v))
	return nil
}

func (r *kvRM) Get(k string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.data[k]
	return v, ok
}

func (r *kvRM) DecodeRedo(data []byte) (any, error) {
	r.decodes.Add(1)
	rd := enc.NewReader(data)
	if op := rd.Uint8(); op != 1 {
		return nil, fmt.Errorf("kvRM: bad op %d", op)
	}
	kv := [2]string{rd.String(), rd.String()}
	return kv, rd.Err()
}

func (r *kvRM) ApplyRedo(item any) error {
	kv := item.([2]string)
	r.redos.Add(1)
	r.applySet(kv[0], kv[1])
	return nil
}

func (r *kvRM) RedoPrepared(t *Txn, data []byte) error {
	rd := enc.NewReader(data)
	if op := rd.Uint8(); op != 1 {
		return fmt.Errorf("kvRM: bad op %d", op)
	}
	k := rd.String()
	v := rd.String()
	if err := rd.Err(); err != nil {
		return err
	}
	return r.Set(t, k, v)
}

type env struct {
	dir string
	log *wal.Log
	lm  *lock.Manager
	m   *Manager
	kv  *kvRM
}

func newEnv(t *testing.T, dir string) *env {
	t.Helper()
	log, err := wal.Open(dir, wal.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	lm := lock.NewManager()
	m := NewManager(log, lm)
	kv := newKVRM()
	m.RegisterRM(kv)
	return &env{dir: dir, log: log, lm: lm, m: m, kv: kv}
}

func TestCommitAppliesAndSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir)
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := e.kv.Set(tx, "b", "2"); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.kv.Get("a"); v != "1" {
		t.Fatal("eager apply missing")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.log.Close()

	// "Crash": fresh manager, empty memory, replay the log.
	e2 := newEnv(t, dir)
	if _, _, err := e2.m.Recover(0); err != nil {
		t.Fatal(err)
	}
	if v, _ := e2.kv.Get("a"); v != "1" {
		t.Fatalf("a = %q after recovery", v)
	}
	if v, _ := e2.kv.Get("b"); v != "2" {
		t.Fatalf("b = %q after recovery", v)
	}
}

func TestAbortUndoesAndIsInvisibleToRecovery(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir)
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.kv.Get("a"); ok {
		t.Fatal("abort did not undo")
	}
	e.log.Close()

	e2 := newEnv(t, dir)
	if _, _, err := e2.m.Recover(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := e2.kv.Get("a"); ok {
		t.Fatal("aborted txn visible after recovery")
	}
}

func TestUndoRunsInReverseOrder(t *testing.T) {
	e := newEnv(t, t.TempDir())
	tx := e.m.Begin()
	var order []int
	tx.OnUndo(func() { order = append(order, 1) })
	tx.OnUndo(func() { order = append(order, 2) })
	tx.OnUndo(func() { order = append(order, 3) })
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 3 || order[2] != 1 {
		t.Fatalf("undo order = %v, want [3 2 1]", order)
	}
}

func TestHooks(t *testing.T) {
	e := newEnv(t, t.TempDir())
	var committed, aborted bool
	tx := e.m.Begin()
	tx.OnCommit(func() { committed = true })
	tx.OnAbort(func() { aborted = true })
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !committed || aborted {
		t.Fatalf("commit hooks: committed=%v aborted=%v", committed, aborted)
	}

	committed, aborted = false, false
	tx2 := e.m.Begin()
	tx2.OnCommit(func() { committed = true })
	tx2.OnAbort(func() { aborted = true })
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if committed || !aborted {
		t.Fatalf("abort hooks: committed=%v aborted=%v", committed, aborted)
	}
}

func TestLocksReleasedAtEnd(t *testing.T) {
	e := newEnv(t, t.TempDir())
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := e.lm.TryAcquire(999, "kv/a", lock.Shared); !errors.Is(err, lock.ErrWouldBlock) {
		t.Fatalf("lock not held during txn: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.lm.TryAcquire(999, "kv/a", lock.Exclusive); err != nil {
		t.Fatalf("lock not released after commit: %v", err)
	}
}

func TestTerminalStateRejectsOps(t *testing.T) {
	e := newEnv(t, t.TempDir())
	tx := e.m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("abort after commit: %v", err)
	}
	if err := tx.Lock(context.Background(), "r", lock.Shared); !errors.Is(err, ErrNotActive) {
		t.Fatalf("lock after commit: %v", err)
	}
	if err := tx.Prepare("c"); !errors.Is(err, ErrNotActive) {
		t.Fatalf("prepare after commit: %v", err)
	}
}

func TestRecoveryRespectsSnapshotLSN(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir)
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "a", "old"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snapLSN := e.log.LastLSN() // pretend we snapshot here, containing a=old

	tx2 := e.m.Begin()
	if err := e.kv.Set(tx2, "a", "new"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	e.log.Close()

	e2 := newEnv(t, dir)
	e2.kv.data["a"] = "old" // snapshot contents
	if _, _, err := e2.m.Recover(snapLSN); err != nil {
		t.Fatal(err)
	}
	if v, _ := e2.kv.Get("a"); v != "new" {
		t.Fatalf("a = %q, want new", v)
	}
}

// A snapshot that absorbed a long log prefix makes that prefix free to
// recover past: its commit records are read for their transaction ids
// only — no op is decoded, none applied — while a prepare before the
// horizon that no decision resolved is still reinstated.
func TestRecoverySkipsAbsorbedPrefix(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir)
	for i := 0; i < 500; i++ {
		tx := e.m.Begin()
		if err := e.kv.Set(tx, fmt.Sprintf("k%d", i), "absorbed"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	prep := e.m.Begin()
	if err := e.kv.Set(prep, "doubt", "pending"); err != nil {
		t.Fatal(err)
	}
	if err := prep.Prepare("coord"); err != nil {
		t.Fatal(err)
	}
	snapLSN := e.log.LastLSN()
	wantNext := e.m.NextID()
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "after", "replayed"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.log.Close()

	e2 := newEnv(t, dir)
	inDoubt, st, err := e2.m.Recover(snapLSN)
	if err != nil {
		t.Fatal(err)
	}
	if d, a := e2.kv.decodes.Load(), e2.kv.redos.Load(); d != 1 || a != 1 {
		t.Fatalf("%d ops decoded, %d applied; want 1 and 1: only the commit after the snapshot", d, a)
	}
	if v, _ := e2.kv.Get("after"); v != "replayed" {
		t.Fatalf("after = %q, want replayed", v)
	}
	if _, ok := e2.kv.Get("k0"); ok {
		t.Fatal("an absorbed commit was re-applied")
	}
	if got := e2.m.NextID(); got != wantNext+1 {
		t.Fatalf("NextID = %d, want %d", got, wantNext+1)
	}
	if len(inDoubt) != 1 || inDoubt[0].Txn.ID() != prep.ID() || inDoubt[0].Coordinator != "coord" {
		t.Fatalf("in-doubt = %+v, want txn %d of coord", inDoubt, prep.ID())
	}
	if st.Records != 502 {
		t.Fatalf("recovery read %d records, want 502", st.Records)
	}
}

func TestPrepareCommitDecision(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir)
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare("coord-1"); err != nil {
		t.Fatal(err)
	}
	if tx.State() != Prepared {
		t.Fatalf("state = %v", tx.State())
	}
	// Locks still held while prepared.
	if err := e.lm.TryAcquire(999, "kv/a", lock.Shared); !errors.Is(err, lock.ErrWouldBlock) {
		t.Fatalf("prepared txn dropped locks: %v", err)
	}
	if err := tx.CommitPrepared(); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.kv.Get("a"); v != "1" {
		t.Fatal("prepared commit lost")
	}
	e.log.Close()

	e2 := newEnv(t, dir)
	if _, _, err := e2.m.Recover(0); err != nil {
		t.Fatal(err)
	}
	if v, _ := e2.kv.Get("a"); v != "1" {
		t.Fatalf("a = %q after recovery of decided txn", v)
	}
}

func TestPrepareAbortDecision(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir)
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare("coord-1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.AbortPrepared(); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.kv.Get("a"); ok {
		t.Fatal("aborted prepared txn visible")
	}
	e.log.Close()

	e2 := newEnv(t, dir)
	inDoubt, _, err := e2.m.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(inDoubt) != 0 {
		t.Fatalf("decided txn reported in doubt: %v", inDoubt)
	}
	if _, ok := e2.kv.Get("a"); ok {
		t.Fatal("aborted txn visible after recovery")
	}
}

func TestInDoubtReinstatement(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir)
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare("coord-7"); err != nil {
		t.Fatal(err)
	}
	e.log.Close() // crash before decision

	e2 := newEnv(t, dir)
	inDoubt, _, err := e2.m.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(inDoubt) != 1 {
		t.Fatalf("in-doubt count = %d, want 1", len(inDoubt))
	}
	d := inDoubt[0]
	if d.Coordinator != "coord-7" {
		t.Fatalf("coordinator = %q", d.Coordinator)
	}
	if d.Txn.State() != Prepared {
		t.Fatalf("state = %v", d.Txn.State())
	}
	// Effects are re-applied as uncommitted: visible in the RM's map
	// (eager apply) but its lock is held, so no other txn can touch it.
	if err := e2.lm.TryAcquire(999, "kv/a", lock.Shared); !errors.Is(err, lock.ErrWouldBlock) {
		t.Fatalf("in-doubt data not protected: %v", err)
	}
	// Coordinator says commit.
	if err := d.Txn.CommitPrepared(); err != nil {
		t.Fatal(err)
	}
	if v, _ := e2.kv.Get("a"); v != "1" {
		t.Fatalf("a = %q after in-doubt commit", v)
	}
	e2.log.Close()

	// A further recovery sees the decision and no in-doubt remains.
	e3 := newEnv(t, dir)
	inDoubt3, _, err := e3.m.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(inDoubt3) != 0 {
		t.Fatalf("in-doubt after decision = %d", len(inDoubt3))
	}
	if v, _ := e3.kv.Get("a"); v != "1" {
		t.Fatalf("a = %q", v)
	}
}

func TestInDoubtAbortAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir)
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare("coord"); err != nil {
		t.Fatal(err)
	}
	e.log.Close()

	e2 := newEnv(t, dir)
	inDoubt, _, err := e2.m.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := inDoubt[0].Txn.AbortPrepared(); err != nil {
		t.Fatal(err)
	}
	if _, ok := e2.kv.Get("a"); ok {
		t.Fatal("in-doubt abort did not undo")
	}
	if err := e2.lm.TryAcquire(999, "kv/a", lock.Exclusive); err != nil {
		t.Fatalf("locks not freed after in-doubt abort: %v", err)
	}
}

func TestNextIDSurvivesViaLog(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir)
	var lastID uint64
	for i := 0; i < 5; i++ {
		tx := e.m.Begin()
		lastID = tx.ID()
		if err := e.kv.Set(tx, "k", "v"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	e.log.Close()

	e2 := newEnv(t, dir)
	if _, _, err := e2.m.Recover(0); err != nil {
		t.Fatal(err)
	}
	tx := e2.m.Begin()
	if tx.ID() <= lastID {
		t.Fatalf("txn id %d reused (last was %d)", tx.ID(), lastID)
	}
}

func TestOldestPrepareLSN(t *testing.T) {
	e := newEnv(t, t.TempDir())
	if got := e.m.OldestPrepareLSN(); got != 0 {
		t.Fatalf("OldestPrepareLSN = %d, want 0", got)
	}
	tx1 := e.m.Begin()
	tx1.LogOp("kv", e.kv.encodeSet("a", "1"))
	if err := tx1.Prepare("c"); err != nil {
		t.Fatal(err)
	}
	tx2 := e.m.Begin()
	tx2.LogOp("kv", e.kv.encodeSet("b", "2"))
	if err := tx2.Prepare("c"); err != nil {
		t.Fatal(err)
	}
	first := e.m.OldestPrepareLSN()
	if first == 0 {
		t.Fatal("no oldest prepare")
	}
	if err := tx1.AbortPrepared(); err != nil {
		t.Fatal(err)
	}
	second := e.m.OldestPrepareLSN()
	if second <= first {
		t.Fatalf("oldest did not advance: %d -> %d", first, second)
	}
	if err := tx2.CommitPrepared(); err != nil {
		t.Fatal(err)
	}
	if got := e.m.OldestPrepareLSN(); got != 0 {
		t.Fatalf("OldestPrepareLSN = %d after all decided", got)
	}
}

// TestOldestPrepareLSNUnderChurn races prepare/abort and prepare/commit
// churn against OldestPrepareLSN, the read that sets a checkpoint's
// truncation horizon. One transaction stays prepared throughout, so the
// horizon must sit at its prepare record on every read. Under -race this
// also checks that the read is synchronized with the state transitions
// (rollback's, Prepare's) of transactions it does not own.
func TestOldestPrepareLSNUnderChurn(t *testing.T) {
	e := newEnv(t, t.TempDir())
	pinned := e.m.Begin()
	pinned.LogOp("kv", e.kv.encodeSet("pin", "1"))
	if err := pinned.Prepare("c"); err != nil {
		t.Fatal(err)
	}
	pin := e.m.OldestPrepareLSN()
	if pin == 0 {
		t.Fatal("no oldest prepare")
	}
	stop := make(chan struct{})
	reader := make(chan struct{})
	go func() {
		defer close(reader)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := e.m.OldestPrepareLSN(); got != pin {
				t.Errorf("OldestPrepareLSN = %d during churn, want the pinned %d", got, pin)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tx := e.m.Begin()
				tx.LogOp("kv", e.kv.encodeSet(fmt.Sprintf("k%d", w), "v"))
				err := tx.Prepare("c")
				if err == nil && i%2 == 0 {
					err = tx.AbortPrepared()
				} else if err == nil {
					err = tx.CommitPrepared()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-reader
	if err := pinned.AbortPrepared(); err != nil {
		t.Fatal(err)
	}
	if got := e.m.OldestPrepareLSN(); got != 0 {
		t.Fatalf("OldestPrepareLSN = %d after all decided", got)
	}
}

func TestEmptyTxnCommitLogsNothing(t *testing.T) {
	e := newEnv(t, t.TempDir())
	before := e.log.LastLSN()
	tx := e.m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.log.LastLSN() != before {
		t.Fatal("read-only commit wrote to the log")
	}
}

func TestUnknownRMFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir)
	tx := e.m.Begin()
	tx.LogOp("mystery", []byte("x"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.log.Close()

	e2 := newEnv(t, dir)
	if _, _, err := e2.m.Recover(0); !errors.Is(err, ErrUnknownRM) {
		t.Fatalf("err = %v, want ErrUnknownRM", err)
	}
}

func TestConcurrentTransactions(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tx := e.m.Begin()
				key := fmt.Sprintf("g%d", g)
				if err := e.kv.Set(tx, key, fmt.Sprintf("%d", i)); err != nil {
					t.Errorf("set: %v", err)
					tx.Abort()
					return
				}
				if i%5 == 4 {
					if err := tx.Abort(); err != nil {
						t.Errorf("abort: %v", err)
					}
				} else if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	commits, aborts := e.m.Stats()
	if commits != 8*40 || aborts != 8*10 {
		t.Fatalf("commits=%d aborts=%d", commits, aborts)
	}
	// Each key's final committed value: last committed i per goroutine is 48
	// (i=49 aborted back to 48).
	e.log.Close()
	e2 := newEnv(t, dir)
	if _, _, err := e2.m.Recover(0); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 8; g++ {
		if v, _ := e2.kv.Get(fmt.Sprintf("g%d", g)); v != "48" {
			t.Fatalf("g%d = %q, want 48", g, v)
		}
	}
}

func TestDoomPreventsCommit(t *testing.T) {
	e := newEnv(t, t.TempDir())
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if !tx.Doom() {
		t.Fatal("Doom on active txn returned false")
	}
	err := tx.Commit()
	if !errors.Is(err, ErrDoomed) {
		t.Fatalf("commit of doomed txn: %v", err)
	}
	if _, ok := e.kv.Get("a"); ok {
		t.Fatal("doomed txn's write survived")
	}
	if tx.State() != Aborted {
		t.Fatalf("state = %v, want aborted", tx.State())
	}
}

func TestDoomAfterCommitFails(t *testing.T) {
	e := newEnv(t, t.TempDir())
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.Doom() {
		t.Fatal("Doom on committed txn returned true")
	}
	if v, _ := e.kv.Get("a"); v != "1" {
		t.Fatal("committed write lost")
	}
}

func TestDoomPreventsPrepare(t *testing.T) {
	e := newEnv(t, t.TempDir())
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if !tx.Doom() {
		t.Fatal("Doom returned false")
	}
	if err := tx.Prepare("c"); !errors.Is(err, ErrDoomed) {
		t.Fatalf("prepare of doomed txn: %v", err)
	}
}

func TestDoomRace(t *testing.T) {
	// Doom and Commit race; exactly one outcome must win and memory must
	// match it.
	for trial := 0; trial < 50; trial++ {
		e := newEnv(t, t.TempDir())
		tx := e.m.Begin()
		if err := e.kv.Set(tx, "a", "1"); err != nil {
			t.Fatal(err)
		}
		doomCh := make(chan bool, 1)
		go func() { doomCh <- tx.Doom() }()
		commitErr := tx.Commit()
		doomed := <-doomCh
		_, present := e.kv.Get("a")
		if doomed {
			if commitErr == nil {
				t.Fatalf("trial %d: doom succeeded but commit also succeeded", trial)
			}
			if present {
				t.Fatalf("trial %d: doomed but write present", trial)
			}
		} else {
			if commitErr != nil {
				t.Fatalf("trial %d: doom failed but commit errored: %v", trial, commitErr)
			}
			if !present {
				t.Fatalf("trial %d: committed but write absent", trial)
			}
		}
	}
}

func TestCommitFailsWhenLogClosed(t *testing.T) {
	e := newEnv(t, t.TempDir())
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	e.log.Close()
	err := tx.Commit()
	if err == nil {
		t.Fatal("commit succeeded on a closed log")
	}
	// The failed commit rolled back: memory matches what recovery would
	// reconstruct (nothing).
	if _, ok := e.kv.Get("a"); ok {
		t.Fatal("failed commit left its write")
	}
	if tx.State() != Aborted {
		t.Fatalf("state = %v", tx.State())
	}
	if err := e.lm.TryAcquire(9, "kv/a", lock.Exclusive); err != nil {
		t.Fatalf("locks leaked: %v", err)
	}
}

func TestPrepareFailsWhenLogClosed(t *testing.T) {
	e := newEnv(t, t.TempDir())
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	e.log.Close()
	if err := tx.Prepare("c"); err == nil {
		t.Fatal("prepare succeeded on a closed log")
	}
	if _, ok := e.kv.Get("a"); ok {
		t.Fatal("failed prepare left its write")
	}
}

func TestDecisionFailsWhenLogClosed(t *testing.T) {
	e := newEnv(t, t.TempDir())
	tx := e.m.Begin()
	if err := e.kv.Set(tx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare("c"); err != nil {
		t.Fatal(err)
	}
	e.log.Close()
	if err := tx.CommitPrepared(); err == nil {
		t.Fatal("decision succeeded on a closed log")
	}
	// Still prepared: the decision can be retried (e.g. after the log
	// recovers); nothing was published.
	if tx.State() != Prepared {
		t.Fatalf("state = %v", tx.State())
	}
}
