package repro

// testing.B benchmarks, one family per EXPERIMENTS.md experiment. These
// measure the steady-state cost of each mechanism; cmd/reprobench runs the
// full parameter sweeps and prints the experiment tables.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchutil"
	"repro/internal/core"
	"repro/internal/core/baseline"
	"repro/internal/queue"
	"repro/internal/queue/qservice"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/tpc"
	"repro/internal/txn"
)

func benchRepo(b *testing.B) *queue.Repository {
	b.Helper()
	return benchRepoOpts(b, queue.Options{NoFsync: true})
}

func benchRepoOpts(b *testing.B, opts queue.Options) *queue.Repository {
	b.Helper()
	repo, _, err := queue.Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { repo.Close() })
	return repo
}

func mustQueue(b *testing.B, repo *queue.Repository, cfg queue.QueueConfig) {
	b.Helper()
	if err := repo.CreateQueue(cfg); err != nil {
		b.Fatal(err)
	}
}

// --- E1: full queued request/reply round trip vs raw RPC ---

func BenchmarkE1_QueuedRequestReply(b *testing.B) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "req"})
	srv, err := core.NewServer(core.ServerConfig{Repo: repo, Queue: "req", Handler: func(rc *core.ReqCtx) ([]byte, error) {
		return rc.Request.Body, nil
	}})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	go srv.Serve(ctx)
	clerk := core.NewClerk(&core.LocalConn{Repo: repo}, core.ClerkConfig{ClientID: "b", RequestQueue: "req"})
	if _, err := clerk.Connect(ctx); err != nil {
		b.Fatal(err)
	}
	body := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clerk.Transceive(ctx, fmt.Sprintf("r%d", i), body, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_RawRPCRequestReply(b *testing.B) {
	repo := benchRepo(b)
	srv := rpc.NewServer()
	(&baseline.RawServer{Repo: repo, Handler: func(ctx context.Context, t *txn.Txn, rid string, body []byte) ([]byte, error) {
		return body, nil
	}}).Attach(srv)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	rc := &baseline.RawClient{RC: rpc.NewClient(addr, nil), Timeout: 5 * time.Second}
	b.Cleanup(rc.RC.Close)
	body := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, outcome := rc.Do(fmt.Sprintf("r%d", i), body); outcome == baseline.RawLost {
			b.Fatal("lost")
		}
	}
}

// --- E2: lock held across reply processing vs not ---

func BenchmarkE2_OneTxnHotAccount(b *testing.B) {
	repo := benchRepo(b)
	handler := benchHotHandler(repo)
	ctx := context.Background()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if err := baseline.OneTxnRequest(ctx, repo, handler, "r", nil, func([]byte) {
				time.Sleep(100 * time.Microsecond) // reply processing in txn
			}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkE2_QueuedHotAccount(b *testing.B) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "req"})
	handler := benchHotHandler(repo)
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	for s := 0; s < 4; s++ {
		srv, err := core.NewServer(core.ServerConfig{Repo: repo, Queue: "req", Name: fmt.Sprintf("s%d", s),
			Handler: func(rc *core.ReqCtx) ([]byte, error) {
				return handler(rc.Ctx, rc.Txn, rc.Request.RID, rc.Request.Body)
			}})
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(ctx)
	}
	var cid atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		clerk := core.NewClerk(&core.LocalConn{Repo: repo}, core.ClerkConfig{
			ClientID: fmt.Sprintf("c%d", cid.Add(1)), RequestQueue: "req"})
		if _, err := clerk.Connect(ctx); err != nil {
			b.Error(err)
			return
		}
		i := 0
		for pb.Next() {
			i++
			if _, err := clerk.Transceive(ctx, fmt.Sprintf("r%d", i), nil, nil, nil); err != nil {
				b.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond) // reply processing outside txn
		}
	})
}

func benchHotHandler(repo *queue.Repository) baseline.Handler {
	return func(ctx context.Context, t *txn.Txn, rid string, body []byte) ([]byte, error) {
		v, _, err := repo.KVGet(ctx, t, "acct", "hot", true)
		if err != nil {
			return nil, err
		}
		n := 0
		if v != nil {
			n, _ = strconv.Atoi(string(v))
		}
		return nil, repo.KVSet(ctx, t, "acct", "hot", []byte(strconv.Itoa(n+1)))
	}
}

// --- E3: dequeue under contention, skip-locked vs strict ---

func benchmarkE3(b *testing.B, strict bool) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "q", StrictFIFO: strict})
	// Keep the queue stocked so dequeues never block.
	for i := 0; i < 1024; i++ {
		if _, err := repo.Enqueue(nil, "q", queue.Element{Body: []byte("x")}, "", nil); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			t := repo.Begin()
			if _, err := repo.Dequeue(ctx, t, "q", "", queue.DequeueOpts{Wait: true}); err != nil {
				t.Abort()
				b.Error(err)
				return
			}
			if _, err := repo.Enqueue(t, "q", queue.Element{Body: []byte("x")}, "", nil); err != nil {
				t.Abort()
				b.Error(err)
				return
			}
			if err := t.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkE3_SkipLockedDequeue(b *testing.B) { benchmarkE3(b, false) }
func BenchmarkE3_StrictFIFODequeue(b *testing.B) { benchmarkE3(b, true) }

// --- E4: the three-transaction pipeline hop ---

func BenchmarkE4_PipelineThreeStageTransfer(b *testing.B) {
	benchmarkE4(b, false)
}

func BenchmarkE4_PipelineWithLockInheritance(b *testing.B) {
	benchmarkE4(b, true)
}

func benchmarkE4(b *testing.B, inherit bool) {
	repo := benchRepo(b)
	stages := []core.Stage{
		{Name: "a", Handler: func(rc *core.ReqCtx) ([]byte, []byte, error) {
			v, _, err := rc.Repo.KVGet(rc.Ctx, rc.Txn, "acct", "hot", true)
			if v == nil {
				v = []byte("0")
			}
			return rc.Request.Body, v, err
		}},
		{Name: "b", Handler: func(rc *core.ReqCtx) ([]byte, []byte, error) {
			return rc.Request.Body, rc.Request.ScratchPad, nil
		}},
		{Name: "c", Handler: func(rc *core.ReqCtx) ([]byte, []byte, error) {
			n, _ := strconv.Atoi(string(rc.Request.ScratchPad))
			return []byte("done"), nil, rc.Repo.KVSet(rc.Ctx, rc.Txn, "acct", "hot", []byte(strconv.Itoa(n+1)))
		}},
	}
	pipe, err := core.NewPipeline(core.PipelineConfig{Repo: repo, Name: "p", Stages: stages, LockInheritance: inherit, Instances: 2})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	go pipe.Serve(ctx)
	clerk := core.NewClerk(&core.LocalConn{Repo: repo}, core.ClerkConfig{ClientID: "b", RequestQueue: pipe.EntryQueue()})
	if _, err := clerk.Connect(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clerk.Transceive(ctx, fmt.Sprintf("r%d", i), nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: the abort-return path (retry bookkeeping) ---

func BenchmarkE5_DequeueAbortReturn(b *testing.B) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "q"})
	if _, err := repo.Enqueue(nil, "q", queue.Element{Body: []byte("x")}, "", nil); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := repo.Begin()
		if _, err := repo.Dequeue(ctx, t, "q", "", queue.DequeueOpts{}); err != nil {
			b.Fatal(err)
		}
		if err := t.Abort(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: Send variants over RPC ---

func benchmarkE6(b *testing.B, oneWay, transceive bool) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "req"})
	srv, err := core.NewServer(core.ServerConfig{Repo: repo, Queue: "req", Handler: func(rc *core.ReqCtx) ([]byte, error) {
		return nil, nil
	}})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	go srv.Serve(ctx)
	rsrv := rpc.NewServer()
	qservice.New(repo, rsrv)
	addr, err := rsrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rsrv.Close)
	qc := qservice.NewClient(rpc.NewClient(addr, nil))
	b.Cleanup(qc.Close)
	clerk := core.NewClerk(qc, core.ClerkConfig{ClientID: "b", RequestQueue: "req", OneWaySend: oneWay})
	if _, err := clerk.Connect(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rid := fmt.Sprintf("r%d", i)
		if transceive {
			if _, err := clerk.Transceive(ctx, rid, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if err := clerk.Send(ctx, rid, nil, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := clerk.Receive(ctx, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6_RemoteSendRPC(b *testing.B)    { benchmarkE6(b, false, false) }
func BenchmarkE6_RemoteSendOneWay(b *testing.B) { benchmarkE6(b, true, false) }
func BenchmarkE6_RemoteTransceive(b *testing.B) { benchmarkE6(b, false, true) }

// --- E7: the recovery path (connect-time resynchronisation) ---

func BenchmarkE7_ConnectResync(b *testing.B) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "req"})
	ctx := context.Background()
	// One registration with history to resynchronize against.
	clerk := core.NewClerk(&core.LocalConn{Repo: repo}, core.ClerkConfig{ClientID: "c", RequestQueue: "req"})
	if _, err := clerk.Connect(ctx); err != nil {
		b.Fatal(err)
	}
	if err := clerk.Send(ctx, "rid-1", nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.NewClerk(&core.LocalConn{Repo: repo}, core.ClerkConfig{ClientID: "c", RequestQueue: "req"})
		info, err := c.Connect(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if !info.Outstanding {
			b.Fatal("lost outstanding request")
		}
	}
}

// --- E8: raw queue-manager operations ---

func BenchmarkE8_EnqueueDurable(b *testing.B) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "q"})
	body := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repo.Enqueue(nil, "q", queue.Element{Body: body}, "", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_EnqueueVolatile(b *testing.B) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "q", Volatile: true})
	body := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repo.Enqueue(nil, "q", queue.Element{Body: body}, "", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_EnqueueDequeuePair(b *testing.B) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "q"})
	ctx := context.Background()
	body := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repo.Enqueue(nil, "q", queue.Element{Body: body}, "", nil); err != nil {
			b.Fatal(err)
		}
		if _, err := repo.Dequeue(ctx, nil, "q", "", queue.DequeueOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_TaggedEnqueue(b *testing.B) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "q"})
	h, _, err := repo.Register("q", "c", true)
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, 128)
	tag := []byte("rid-000042")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Enqueue(nil, queue.Element{Body: body}, tag); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_Checkpoint1kElements(b *testing.B) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "q"})
	for i := 0; i < 1000; i++ {
		if _, err := repo.Enqueue(nil, "q", queue.Element{Body: make([]byte, 128)}, "", nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := repo.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_RecoveryReplay1kOps(b *testing.B) {
	dir := b.TempDir()
	repo, _, err := queue.Open(dir, queue.Options{NoFsync: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := repo.CreateQueue(queue.QueueConfig{Name: "q"}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := repo.Enqueue(nil, "q", queue.Element{Body: make([]byte, 128)}, "", nil); err != nil {
			b.Fatal(err)
		}
	}
	repo.Crash()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _, err := queue.Open(dir, queue.Options{NoFsync: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		r.Crash()
		b.StartTimer()
	}
}

// --- E9: one conversation round, pseudo-conversational ---

func BenchmarkE9_PseudoConversationalRound(b *testing.B) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "req"})
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	go core.ServeConversational(ctx, core.ConvServerConfig{Repo: repo, Queue: "req",
		Handler: func(rc *core.ReqCtx, state, input []byte, round int) ([]byte, []byte, bool, error) {
			if round == 1 {
				return nil, []byte("done"), true, nil
			}
			return []byte("s"), []byte("more?"), false, nil
		}})
	clerk := core.NewClerk(&core.LocalConn{Repo: repo}, core.ClerkConfig{ClientID: "b", RequestQueue: "req"})
	if _, err := clerk.Connect(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := clerk.Interactive(fmt.Sprintf("r%d", i))
		if err := sess.Start(ctx, nil); err != nil {
			b.Fatal(err)
		}
		if _, done, err := sess.Receive(ctx, nil); err != nil || done {
			b.Fatalf("round 0: %v %v", done, err)
		}
		if err := sess.SendInput(ctx, []byte("x")); err != nil {
			b.Fatal(err)
		}
		if _, done, err := sess.Receive(ctx, nil); err != nil || !done {
			b.Fatalf("final: %v %v", done, err)
		}
	}
}

// --- E10: parallel consumption throughput ---

func BenchmarkE10_ParallelConsumers(b *testing.B) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "q"})
	for i := 0; i < 4096; i++ {
		if _, err := repo.Enqueue(nil, "q", queue.Element{Body: []byte("x")}, "", nil); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			t := repo.Begin()
			if _, err := repo.Dequeue(ctx, t, "q", "", queue.DequeueOpts{Wait: true}); err != nil {
				t.Abort()
				b.Error(err)
				return
			}
			if _, err := repo.Enqueue(t, "q", queue.Element{Body: []byte("x")}, "", nil); err != nil {
				t.Abort()
				b.Error(err)
				return
			}
			if err := t.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --- queue sharding: disjoint-queue contention ---

// benchmarkShardedContention runs one producer and one blocking consumer
// per queue on nq disjoint queues — a multi-tenant repository where each
// tenant is mostly idle (a global pacing token keeps one element in flight
// across the repository, so at every commit the other tenants' consumers
// are parked on empty queues). Independent queues should not serialize
// against each other, and a commit on one queue should wake only that
// queue's consumer — the benchmark degrades with nq when every visibility
// change wakes every parked consumer with a repository-global broadcast,
// because each of the nq-1 idle consumers then rescans its empty queue
// under the global mutex.
//
// The volatile variant takes the WAL out of the picture entirely, so the
// repository's concurrency control (locks and wakeups) is the entire
// measured cost; the durable variant shows the same effect diluted by the
// per-commit log write.
func benchmarkShardedContention(b *testing.B, nq int, volatile bool) {
	repo := benchRepoOpts(b, queue.Options{NoFsync: true})
	for i := 0; i < nq; i++ {
		mustQueue(b, repo, queue.QueueConfig{Name: fmt.Sprintf("q%d", i), Volatile: volatile})
	}
	ctx := context.Background()
	perQ := b.N/nq + 1
	body := []byte("x")
	token := make(chan struct{}, 1) // one element in flight repository-wide
	token <- struct{}{}
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < nq; i++ {
		qname := fmt.Sprintf("q%d", i)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < perQ; j++ {
				<-token
				if _, err := repo.Enqueue(nil, qname, queue.Element{Body: body}, "", nil); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < perQ; j++ {
				if _, err := repo.Dequeue(ctx, nil, qname, "", queue.DequeueOpts{Wait: true}); err != nil {
					b.Error(err)
					return
				}
				token <- struct{}{}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkRepositoryShardedContention_1Q(b *testing.B) {
	benchmarkShardedContention(b, 1, true)
}
func BenchmarkRepositoryShardedContention_4Q(b *testing.B) {
	benchmarkShardedContention(b, 4, true)
}
func BenchmarkRepositoryShardedContention_16Q(b *testing.B) {
	benchmarkShardedContention(b, 16, true)
}

func BenchmarkRepositoryShardedContention_16QDurable(b *testing.B) {
	benchmarkShardedContention(b, 16, false)
}

// --- volatile fast path: stocked producer/consumer throughput ---

// benchmarkFastpathContention runs one producer and one non-blocking
// consumer per queue on nq disjoint volatile queues, each queue pre-stocked
// with a cushion of elements so consumers never park. Unlike
// benchmarkShardedContention — whose single repository-wide pacing token
// keeps exactly one element in flight and therefore measures wakeup
// targeting, not op throughput — this is the regime the lock-free volatile
// fast path serves: auto-committed, unfiltered, non-waiting traffic where
// the per-op shard mutex (or its absence) is the entire measured cost.
func benchmarkFastpathContention(b *testing.B, nq int) {
	repo := benchRepoOpts(b, queue.Options{NoFsync: true})
	const cushion = 64
	for i := 0; i < nq; i++ {
		qname := fmt.Sprintf("q%d", i)
		mustQueue(b, repo, queue.QueueConfig{Name: qname, Volatile: true})
		for j := 0; j < cushion; j++ {
			if _, err := repo.Enqueue(nil, qname, queue.Element{}, "", nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	ctx := context.Background()
	perQ := b.N/nq + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < nq; i++ {
		qname := fmt.Sprintf("q%d", i)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < perQ; j++ {
				if _, err := repo.Enqueue(nil, qname, queue.Element{}, "", nil); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < perQ; j++ {
				for {
					_, err := repo.Dequeue(ctx, nil, qname, "", queue.DequeueOpts{})
					if err == nil {
						break
					}
					if !errors.Is(err, queue.ErrEmpty) {
						b.Error(err)
						return
					}
					runtime.Gosched() // producer briefly behind the cushion
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkRepositoryShardedContentionFastpath_1Q(b *testing.B) {
	benchutil.WithGOMAXPROCS(b, benchutil.Procs, func(b *testing.B) {
		benchmarkFastpathContention(b, 1)
	})
}

func BenchmarkRepositoryShardedContentionFastpath_16Q(b *testing.B) {
	benchutil.WithGOMAXPROCS(b, benchutil.Procs, func(b *testing.B) {
		benchmarkFastpathContention(b, 16)
	})
}

// --- group commit: concurrent durable commit throughput ---

// benchmarkGroupCommitThroughput is the regime group commit exists for:
// one producer and one blocking consumer per queue with a *per-queue*
// pacing token, so up to nq commits are in flight at once and the log
// writer can coalesce them. Compare the volatile arm (no WAL at all)
// with the durable arm (staged commits share forces, locks release at
// the stage point). The contention benchmark above intentionally keeps
// one element in flight repository-wide and therefore measures the
// *uncontended* commit — a batch of one, forced inline — not the
// amortization.
func benchmarkGroupCommitThroughput(b *testing.B, nq int, volatile bool) {
	repo := benchRepoOpts(b, queue.Options{NoFsync: true})
	for i := 0; i < nq; i++ {
		mustQueue(b, repo, queue.QueueConfig{Name: fmt.Sprintf("q%d", i), Volatile: volatile})
	}
	ctx := context.Background()
	perQ := b.N/nq + 1
	body := []byte("x")
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < nq; i++ {
		qname := fmt.Sprintf("q%d", i)
		token := make(chan struct{}, 1) // one element in flight per queue
		token <- struct{}{}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < perQ; j++ {
				<-token
				if _, err := repo.Enqueue(nil, qname, queue.Element{Body: body}, "", nil); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < perQ; j++ {
				if _, err := repo.Dequeue(ctx, nil, qname, "", queue.DequeueOpts{Wait: true}); err != nil {
					b.Error(err)
					return
				}
				token <- struct{}{}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkRepositoryGroupCommit_16QVolatile(b *testing.B) {
	benchmarkGroupCommitThroughput(b, 16, true)
}

func BenchmarkRepositoryGroupCommit_16QDurable(b *testing.B) {
	benchmarkGroupCommitThroughput(b, 16, false)
}

// --- E11: cancellation primitive ---

func BenchmarkE11_KillElement(b *testing.B) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "q"})
	eids := make([]queue.EID, b.N)
	for i := 0; i < b.N; i++ {
		eid, err := repo.Enqueue(nil, "q", queue.Element{Body: []byte("x")}, "", nil)
		if err != nil {
			b.Fatal(err)
		}
		eids[i] = eid
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		killed, err := repo.KillElement(eids[i])
		if err != nil || !killed {
			b.Fatalf("kill %d: %v %v", eids[i], killed, err)
		}
	}
}

// --- E12: local vs distributed element move ---

func BenchmarkE12_LocalMove1PC(b *testing.B) {
	repo := benchRepo(b)
	mustQueue(b, repo, queue.QueueConfig{Name: "in"})
	mustQueue(b, repo, queue.QueueConfig{Name: "out"})
	if _, err := repo.Enqueue(nil, "in", queue.Element{Body: []byte("m")}, "", nil); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	from, to := "in", "out"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := repo.Begin()
		el, err := repo.Dequeue(ctx, t, from, "", queue.DequeueOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := repo.Enqueue(t, to, el, "", nil); err != nil {
			b.Fatal(err)
		}
		if err := t.Commit(); err != nil {
			b.Fatal(err)
		}
		from, to = to, from
	}
}

func BenchmarkE12_DistributedMove2PC(b *testing.B) {
	dir := b.TempDir()
	repoA, _, err := queue.Open(filepath.Join(dir, "a"), queue.Options{NoFsync: true, Name: "a"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { repoA.Close() })
	repoB, _, err := queue.Open(filepath.Join(dir, "b"), queue.Options{NoFsync: true, Name: "b"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { repoB.Close() })
	coord, err := tpc.OpenCoordinator("bench", filepath.Join(dir, "c"), true)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { coord.Close() })
	if err := repoA.CreateQueue(queue.QueueConfig{Name: "q"}); err != nil {
		b.Fatal(err)
	}
	if err := repoB.CreateQueue(queue.QueueConfig{Name: "q"}); err != nil {
		b.Fatal(err)
	}
	if _, err := repoA.Enqueue(nil, "q", queue.Element{Body: []byte("m")}, "", nil); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	src, dst := repoA, repoB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tS := src.Begin()
		tD := dst.Begin()
		el, err := src.Dequeue(ctx, tS, "q", "", queue.DequeueOpts{})
		if err != nil {
			b.Fatal(err)
		}
		el.EID = 0
		if _, err := dst.Enqueue(tD, "q", el, "", nil); err != nil {
			b.Fatal(err)
		}
		g := coord.Begin()
		g.Enlist(&tpc.LocalBranch{Label: "s", Txn: tS})
		g.Enlist(&tpc.LocalBranch{Label: "d", Txn: tD})
		if err := g.Commit(); err != nil {
			b.Fatal(err)
		}
		src, dst = dst, src
	}
}

// --- E13/E15: replication commit-rule cost ---

// benchmarkE13Commit measures the per-commit price of each replication
// commit rule against the same in-process standby: what a durable
// enqueue costs unreplicated, with fire-and-forget async shipping, and
// with the sync rule that withholds the ack until the standby has the
// bytes (BENCH_failover.json).
func benchmarkE13Commit(b *testing.B, mode replica.Mode, replicated bool) {
	dir := b.TempDir()
	opts := queue.Options{NoFsync: true}
	if replicated {
		rcv, err := replica.NewReceiver(b.TempDir(), replica.ReceiverOptions{NoFsync: true})
		if err != nil {
			b.Fatal(err)
		}
		tr := replica.TransportFunc(func(ctx context.Context, req []byte) ([]byte, error) {
			return rcv.Apply(req), nil
		})
		snd, err := replica.NewSender(dir, tr, replica.SenderOptions{Mode: mode})
		if err != nil {
			b.Fatal(err)
		}
		opts.WALGate = snd.Gate
		if mode == replica.ModeAsync || mode == replica.ModeSemiSync {
			ctx, cancel := context.WithCancel(context.Background())
			b.Cleanup(cancel)
			go snd.Run(ctx, 5*time.Millisecond)
		}
	}
	repo, _, err := queue.Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { repo.Close() })
	mustQueue(b, repo, queue.QueueConfig{Name: "q"})
	body := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repo.Enqueue(nil, "q", queue.Element{Body: body}, "", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13_CommitUnreplicated(b *testing.B) { benchmarkE13Commit(b, replica.ModeAsync, false) }
func BenchmarkE13_CommitAsyncRepl(b *testing.B)    { benchmarkE13Commit(b, replica.ModeAsync, true) }
func BenchmarkE13_CommitSemiSyncRepl(b *testing.B) { benchmarkE13Commit(b, replica.ModeSemiSync, true) }
func BenchmarkE13_CommitSyncRepl(b *testing.B)     { benchmarkE13Commit(b, replica.ModeSync, true) }
