package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/queue/qservice"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/rrq"
)

// The rpc_* workloads: the paper's recoverable request, whole. A clerk
// Transceives over a real TCP connection to a node with a durable request
// queue and a durable private reply queue; a co-located server dequeues,
// runs the handler, enqueues the reply and commits, all in one
// transaction; the clerk dequeues the reply.

const requestQueue = "req"

type rpcEnv struct {
	cfg     *runCfg
	dir     string
	node    *rrq.Node
	standby *rrq.Standby
	led     *ledger
	tr      *tracer // nil unless traced

	cancel  context.CancelFunc
	servers sync.WaitGroup
	clients []*rpcClient
}

type rpcClient struct {
	conn   *qservice.Client
	clerk  *rrq.Clerk
	traced *tracedClerk // nil unless traced
	gen    *gen
	seq    uint64
}

// echoHandler is the benchmark's server application: it answers each
// request with the checksum of its body, and tells the ledger it ran.
func echoHandler(led *ledger, tr *tracer) rrq.Handler {
	return func(rc *rrq.ReqCtx) ([]byte, error) {
		if tr != nil && tr.on.Load() {
			start := time.Now()
			led.executed(rc.Request.RID)
			out := checksumBytes(rc.Request.Body)
			tr.handlerSpan(rc.Request.RID, start, time.Now())
			return out, nil
		}
		led.executed(rc.Request.RID)
		return checksumBytes(rc.Request.Body), nil
	}
}

// setupRPC opens the node (and standby), creates the request queue,
// starts the servers and connects the clerks: everything before the first
// request.
func setupRPC(cfg *runCfg, tr *tracer) (_ *rpcEnv, err error) {
	dir, err := newScratch(cfg.dir, cfg.workload)
	if err != nil {
		return nil, err
	}
	env := &rpcEnv{cfg: cfg, dir: dir, led: newLedger(cfg.clerks), tr: tr}
	defer func() {
		if err != nil {
			env.close()
		}
	}()

	nc := rrq.NodeConfig{
		Dir:         filepath.Join(dir, "node"),
		ListenAddr:  "127.0.0.1:0",
		GroupCommit: true,
		NoFsync:     cfg.noFsync(),
		Trace:       cfg.obsTrace,
		WALFS:       tr.walFS(),
	}
	// The standby's lease pings go to the primary, whose address is not
	// known until it listens: the transport resolves it lazily. The TTL is
	// long enough never to fire during a run.
	var lease atomic.Pointer[replica.RPCTransport]
	if cfg.workload == "rpc_sync_repl" {
		env.standby, err = rrq.StartStandby(rrq.StandbyConfig{
			Dir:        filepath.Join(dir, "standby"),
			ListenAddr: "127.0.0.1:0",
			LeaseTTL:   time.Hour,
			NoFsync:    cfg.smoke,
			LeaseTransport: replica.TransportFunc(func(ctx context.Context, req []byte) ([]byte, error) {
				t := lease.Load()
				if t == nil {
					return nil, errors.New("primary not up yet")
				}
				return t.Exchange(ctx, req)
			}),
		})
		if err != nil {
			return nil, fmt.Errorf("start standby: %w", err)
		}
		var ship rrq.ReplTransport = replica.NewRPCTransport(rpc.NewClient(env.standby.Addr(), nil), replica.MethodShip)
		if tr != nil {
			ship = timingTransport{ship, tr}
		}
		nc.Replication = &rrq.ReplicationConfig{Mode: rrq.ReplSync, Transport: ship, LeaseTTL: time.Hour}
	}
	if env.node, err = rrq.StartNode(nc); err != nil {
		return nil, fmt.Errorf("start node: %w", err)
	}
	if env.standby != nil {
		lease.Store(replica.NewRPCTransport(rpc.NewClient(env.node.Addr(), nil), replica.MethodLease))
	}
	if err = env.node.CreateQueue(rrq.QueueConfig{Name: requestQueue}); err != nil {
		return nil, fmt.Errorf("create queue: %w", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	env.cancel = cancel
	for i := 0; i < cfg.clerks; i++ {
		srv, serr := rrq.NewServer(rrq.ServerConfig{
			Repo:    env.node.Repo(),
			Queue:   requestQueue,
			Name:    fmt.Sprintf("srv%d", i),
			Handler: echoHandler(env.led, tr),
		})
		if serr != nil {
			return nil, serr
		}
		env.servers.Add(1)
		go func() {
			defer env.servers.Done()
			_ = srv.Serve(ctx) // returns nil on cancel; a failing server shows as unanswered requests
		}()
	}

	var clerkTracer *trace.Tracer
	if cfg.obsTrace {
		clerkTracer = trace.New(4096, obs.NewRegistry())
	}
	for i := 0; i < cfg.clerks; i++ {
		c := &rpcClient{gen: newGen(cfg.seed, i)}
		var dial rpc.Dialer
		if tr != nil {
			dial = tr.dialer()
		}
		c.conn = qservice.NewClient(rpc.NewClient(env.node.Addr(), dial)) // one TCP connection per clerk
		var qm rrq.QMConn = c.conn
		if tr != nil {
			c.traced = &tracedClerk{QMConn: qm, tr: tr, reqQueue: requestQueue}
			qm = c.traced
		}
		c.clerk = rrq.NewClerk(qm, rrq.ClerkConfig{
			ClientID:     fmt.Sprintf("c%d", i),
			RequestQueue: requestQueue,
			Tracer:       clerkTracer,
		})
		env.clients = append(env.clients, c)
		if _, err = c.clerk.Connect(ctx); err != nil {
			return nil, fmt.Errorf("clerk %d connect: %w", i, err)
		}
	}
	return env, nil
}

// request runs one recoverable request for client w and audits its reply.
func (e *rpcEnv) request(w int) (int64, error) {
	c := e.clients[w]
	seq := c.seq
	c.seq++
	ridStr, body := rid(w, seq), c.gen.body()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t0 := time.Now()
	var rep rrq.Reply
	var err error
	if c.traced != nil {
		rep, err = c.traced.transceive(ctx, c.clerk, ridStr, body)
	} else {
		rep, err = c.clerk.Transceive(ctx, ridStr, body, nil, nil)
	}
	lat := int64(time.Since(t0))
	if err != nil {
		return lat, err
	}
	e.led.sent(w, seq)
	if rep.RID != ridStr || rep.Status != rrq.StatusOK || !replyMatches(rep.Body, body) {
		return lat, fmt.Errorf("reply for %s does not echo its request (rid %q status %q)", ridStr, rep.RID, rep.Status)
	}
	e.led.replied(ridStr)
	return lat, nil
}

func (e *rpcEnv) close() {
	if e.cancel != nil {
		e.cancel()
	}
	for _, c := range e.clients {
		c.conn.Close()
	}
	if e.node != nil {
		e.node.Close()
	}
	e.servers.Wait()
	if e.standby != nil {
		e.standby.Close()
	}
	os.RemoveAll(e.dir)
}
