package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/tpc"
)

func init() {
	register("e8", runE8)
	register("e12", runE12)
}

// runE8: the queue manager as a main-memory database (Section 10): raw
// operation costs, checkpoint cost, recovery time.
func runE8(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "Queue manager operation costs (main-memory database, Section 10)",
		Claim: "§10: most stored data is deleted shortly after insertion, so queues can be managed as a " +
			"main-memory database — logging updates, with snapshots only for restart speed.",
		Columns: []string{"operation", "ops", "elapsed", "ops/s", "µs/op"},
	}
	n := cfg.scale(3000, 30000)

	dir, err := cfg.tempDir("e8-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	repo, _, err := queue.Open(dir, queue.Options{NoFsync: !cfg.Fsync})
	if err != nil {
		return nil, err
	}
	defer repo.Close()
	for _, q := range []string{"durable", "volatile", "tagged"} {
		vol := q == "volatile"
		if err := repo.CreateQueue(queue.QueueConfig{Name: q, Volatile: vol}); err != nil {
			return nil, err
		}
	}
	h, _, err := repo.Register("tagged", "bench-client", true)
	if err != nil {
		return nil, err
	}
	body := make([]byte, 128)

	measure := func(name string, ops int, f func(i int) error) error {
		start := time.Now()
		for i := 0; i < ops; i++ {
			if err := f(i); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		el := time.Since(start).Seconds()
		t.AddRow(name, strconv.Itoa(ops), fmt.Sprintf("%.3fs", el), fmtRate(ops, el),
			fmt.Sprintf("%.1f", el*1e6/float64(ops)))
		return nil
	}

	ctx := context.Background()
	if err := measure("enqueue (durable, logged)", n, func(i int) error {
		_, err := repo.Enqueue(nil, "durable", queue.Element{Body: body}, "", nil)
		return err
	}); err != nil {
		return nil, err
	}
	if err := measure("dequeue (durable, logged)", n, func(i int) error {
		_, err := repo.Dequeue(ctx, nil, "durable", "", queue.DequeueOpts{})
		return err
	}); err != nil {
		return nil, err
	}
	if err := measure("enqueue (volatile)", n, func(i int) error {
		_, err := repo.Enqueue(nil, "volatile", queue.Element{Body: body}, "", nil)
		return err
	}); err != nil {
		return nil, err
	}
	if err := measure("dequeue (volatile)", n, func(i int) error {
		_, err := repo.Dequeue(ctx, nil, "volatile", "", queue.DequeueOpts{})
		return err
	}); err != nil {
		return nil, err
	}
	if err := measure("enqueue+tag (stable registration)", n, func(i int) error {
		_, err := h.Enqueue(nil, queue.Element{Body: body}, []byte(ridOf(i)))
		return err
	}); err != nil {
		return nil, err
	}
	if err := measure("txn{dequeue+enqueue} (request hop)", n, func(i int) error {
		tx := repo.Begin()
		el, err := repo.Dequeue(ctx, tx, "tagged", "", queue.DequeueOpts{})
		if err != nil {
			tx.Abort()
			return err
		}
		if _, err := repo.Enqueue(tx, "durable", el, "", nil); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}); err != nil {
		return nil, err
	}

	// Checkpoint cost with the queue holding n elements.
	start := time.Now()
	if err := repo.Checkpoint(); err != nil {
		return nil, err
	}
	ckpt := time.Since(start)
	t.AddRow(fmt.Sprintf("checkpoint (%d live elements)", n), "1",
		fmt.Sprintf("%.3fs", ckpt.Seconds()), "-", fmt.Sprintf("%.0f", float64(ckpt.Microseconds())))

	// Recovery cost: with the fresh snapshot vs replaying the whole log.
	repo.Crash()
	start = time.Now()
	repo2, _, err := queue.Open(dir, queue.Options{NoFsync: !cfg.Fsync})
	if err != nil {
		return nil, err
	}
	recSnap := time.Since(start)
	repo2.Close()
	t.AddRow("recovery (snapshot + log tail)", "1",
		fmt.Sprintf("%.3fs", recSnap.Seconds()), "-", fmt.Sprintf("%.0f", float64(recSnap.Microseconds())))

	// Log-only recovery: a fresh repository, n logged enqueues, no
	// checkpoint, then recover.
	dir2, err := cfg.tempDir("e8b-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir2)
	repo3, _, err := queue.Open(dir2, queue.Options{NoFsync: !cfg.Fsync})
	if err != nil {
		return nil, err
	}
	if err := repo3.CreateQueue(queue.QueueConfig{Name: "q"}); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if _, err := repo3.Enqueue(nil, "q", queue.Element{Body: body}, "", nil); err != nil {
			return nil, err
		}
	}
	repo3.Crash()
	start = time.Now()
	repo4, _, err := queue.Open(dir2, queue.Options{NoFsync: !cfg.Fsync})
	if err != nil {
		return nil, err
	}
	recLog := time.Since(start)
	repo4.Close()
	t.AddRow(fmt.Sprintf("recovery (replay %d-op log, no snapshot)", n), "1",
		fmt.Sprintf("%.3fs", recLog.Seconds()), "-", fmt.Sprintf("%.0f", float64(recLog.Microseconds())))

	// Group-commit ablation: durable enqueues with REAL fsync from one
	// writer and from eight, on the one write path every log has. The
	// lone writer forces once per commit; the eight share forces. (These
	// rows always use fsync so the batching has something to amortize.)
	for _, writers := range []int{1, 8} {
		name := fmt.Sprintf("durable enqueue, %d writer(s)", writers)
		gOps := n / 4
		arm, err := e8GroupCommitArm(cfg, writers, gOps)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, strconv.Itoa(gOps), fmt.Sprintf("%.3fs", arm.elapsed),
			fmtRate(gOps, arm.elapsed), fmt.Sprintf("%.1f", arm.elapsed*1e6/float64(gOps)))
		t.Notef("%s used %d physical fsyncs for %d commits (%.2f fsyncs/commit, mean batch %.1f records)",
			name, arm.syncs, gOps, float64(arm.syncs)/float64(gOps), arm.batchMean)
	}

	if !cfg.Fsync {
		t.Notef("fsync disabled for the single-threaded rows (shape, not absolute durability latency); enable with -fsync")
	}
	t.Notef("volatile queues skip the log entirely — the §10 'volatile queue' trade")
	return t, nil
}

// e8Arm is one row of E8's group-commit ablation.
type e8Arm struct {
	elapsed   float64 // seconds
	syncs     uint64  // physical fsyncs (wal.fsyncs)
	batchMean float64 // records made durable per flush (wal.group_size)
}

// e8GroupCommitArm measures total durable auto-commit enqueues spread
// over writers goroutines, fsync enabled. Alongside the timing it reports
// metric deltas from the repository's registry: physical fsyncs and the
// mean group-commit batch size.
func e8GroupCommitArm(cfg Config, writers, total int) (e8Arm, error) {
	var arm e8Arm
	dir, err := cfg.tempDir("e8gc-*")
	if err != nil {
		return arm, err
	}
	defer os.RemoveAll(dir)
	repo, _, err := queue.Open(dir, queue.Options{})
	if err != nil {
		return arm, err
	}
	defer repo.Close()
	if err := repo.CreateQueue(queue.QueueConfig{Name: "q"}); err != nil {
		return arm, err
	}
	body := make([]byte, 128)
	before := repo.Metrics().Snapshot()
	start := time.Now()
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func() {
			for i := 0; i < total/writers; i++ {
				if _, err := repo.Enqueue(nil, "q", queue.Element{Body: body}, "", nil); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
	}
	for w := 0; w < writers; w++ {
		if err := <-errCh; err != nil {
			return arm, err
		}
	}
	arm.elapsed = time.Since(start).Seconds()
	after := repo.Metrics().Snapshot()
	arm.syncs = obs.CounterDelta(before, after, "wal.fsyncs")
	hb, ha := before.Histograms["wal.group_size"], after.Histograms["wal.group_size"]
	if dc := ha.Count - hb.Count; dc > 0 {
		arm.batchMean = float64(ha.Sum-hb.Sum) / float64(dc)
	}
	return arm, nil
}

// runE12: the cost of spanning two repositories with one server
// transaction (two-phase commit, Sections 5–6).
func runE12(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Local transactions vs two-phase commit across repositories",
		Claim: "§5–6: a server transaction may dequeue from one node's queue and enqueue into another's; " +
			"2PC makes the move atomic at the price of extra log forces and coordinator records.",
		Columns: []string{"arm", "moves", "elapsed", "moves/s", "log-records/move"},
	}
	n := cfg.scale(1500, 10000)
	for _, arm := range []string{"local-1pc", "distributed-2pc"} {
		row, err := e12Arm(cfg, arm, n)
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	t.Notef("a move = dequeue from 'in', enqueue into 'out', atomically; 2PC adds prepare + decision records")
	t.Notef("the crash-window correctness (presumed abort, in-doubt resolution) is covered by internal/tpc tests")
	return t, nil
}

func e12Arm(cfg Config, arm string, n int) ([]string, error) {
	dir, err := cfg.tempDir("e12-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	repoA, _, err := queue.Open(filepath.Join(dir, "a"), queue.Options{NoFsync: !cfg.Fsync, Name: "a"})
	if err != nil {
		return nil, err
	}
	defer repoA.Close()
	if err := repoA.CreateQueue(queue.QueueConfig{Name: "in"}); err != nil {
		return nil, err
	}

	var moveFn func() error
	var logStats func() uint64
	switch arm {
	case "local-1pc":
		if err := repoA.CreateQueue(queue.QueueConfig{Name: "out"}); err != nil {
			return nil, err
		}
		moveFn = func() error {
			tx := repoA.Begin()
			el, err := repoA.Dequeue(ctx, tx, "in", "", queue.DequeueOpts{})
			if err != nil {
				tx.Abort()
				return err
			}
			if _, err := repoA.Enqueue(tx, "out", el, "", nil); err != nil {
				tx.Abort()
				return err
			}
			return tx.Commit()
		}
		logStats = func() uint64 { return repoA.Log().Stats().Appends }
	case "distributed-2pc":
		repoB, _, err := queue.Open(filepath.Join(dir, "b"), queue.Options{NoFsync: !cfg.Fsync, Name: "b"})
		if err != nil {
			return nil, err
		}
		defer repoB.Close()
		if err := repoB.CreateQueue(queue.QueueConfig{Name: "out"}); err != nil {
			return nil, err
		}
		coord, err := tpc.OpenCoordinator("e12", filepath.Join(dir, "coord"), !cfg.Fsync)
		if err != nil {
			return nil, err
		}
		defer coord.Close()
		moveFn = func() error {
			tA := repoA.Begin()
			tB := repoB.Begin()
			el, err := repoA.Dequeue(ctx, tA, "in", "", queue.DequeueOpts{})
			if err != nil {
				tA.Abort()
				tB.Abort()
				return err
			}
			el.EID = 0
			if _, err := repoB.Enqueue(tB, "out", el, "", nil); err != nil {
				tA.Abort()
				tB.Abort()
				return err
			}
			g := coord.Begin()
			g.Enlist(&tpc.LocalBranch{Label: "a", Txn: tA})
			g.Enlist(&tpc.LocalBranch{Label: "b", Txn: tB})
			return g.Commit()
		}
		logStats = func() uint64 {
			return repoA.Log().Stats().Appends + repoB.Log().Stats().Appends + coord.Log().Stats().Appends
		}
	default:
		return nil, fmt.Errorf("unknown arm %q", arm)
	}

	for i := 0; i < n; i++ {
		if _, err := repoA.Enqueue(nil, "in", queue.Element{Body: []byte("m")}, "", nil); err != nil {
			return nil, err
		}
	}
	base := logStats()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := moveFn(); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start).Seconds()
	perMove := float64(logStats()-base) / float64(n)
	return []string{arm, strconv.Itoa(n), fmt.Sprintf("%.3fs", elapsed), fmtRate(n, elapsed),
		fmt.Sprintf("%.2f", perMove)}, nil
}
