// Package rrq ("recoverable request queues") is the public API of this
// reproduction of Bernstein, Hsu & Mann, "Implementing Recoverable
// Requests Using Queues" (SIGMOD 1990).
//
// A Node is one back-end: a recoverable queue repository (queues, shared
// database tables, persistent registrations) with its write-ahead log,
// transaction manager, two-phase-commit coordinator, and — optionally — an
// RPC endpoint for remote clients. Clients talk to a node through a Clerk
// (the paper's Client Model: Connect / Send / Receive / Rereceive /
// Disconnect with exactly-once request processing); servers attach
// handlers with NewServer, multi-transaction pipelines with NewPipeline,
// compensatable pipelines with NewSaga, and conversations with
// ServeConversational.
//
// See the examples/ directory for runnable end-to-end programs.
package rrq

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	rlog "repro/internal/obs/log"
	"repro/internal/obs/trace"
	"repro/internal/queue"
	"repro/internal/queue/qservice"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/tpc"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Re-exported types: the full vocabulary a downstream user needs, in one
// import.
type (
	// Element is a queue element.
	Element = queue.Element
	// EID identifies an element within a repository.
	EID = queue.EID
	// QueueConfig describes a queue.
	QueueConfig = queue.QueueConfig
	// DequeueOpts select and tag a dequeue.
	DequeueOpts = queue.DequeueOpts
	// RegInfo is a registrant's persistent last-operation record.
	RegInfo = queue.RegInfo
	// Repository is a queue repository (advanced/direct use).
	Repository = queue.Repository
	// Txn is a transaction.
	Txn = txn.Txn
	// Metrics is the cross-layer metrics registry (see Node.Metrics).
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = obs.Snapshot
	// Tracer records request span trees (see Node.Tracer).
	Tracer = trace.Tracer
	// TraceID identifies one request's span tree.
	TraceID = trace.ID

	// Clerk is the client-side runtime library (fig. 5).
	Clerk = core.Clerk
	// ClerkConfig configures a Clerk.
	ClerkConfig = core.ClerkConfig
	// ConnectInfo is what Connect returns for resynchronisation.
	ConnectInfo = core.ConnectInfo
	// Request is a server handler's view of a request.
	Request = core.Request
	// Reply is a client's view of a reply.
	Reply = core.Reply
	// ReqCtx is the handler execution context.
	ReqCtx = core.ReqCtx
	// Handler processes one request.
	Handler = core.Handler
	// Server is the fig. 5 server loop.
	Server = core.Server
	// ServerConfig configures a Server.
	ServerConfig = core.ServerConfig
	// Stage is one transaction of a multi-transaction request.
	Stage = core.Stage
	// StageHandler runs one stage.
	StageHandler = core.StageHandler
	// Pipeline is a fig. 6 multi-transaction pipeline.
	Pipeline = core.Pipeline
	// PipelineConfig configures a Pipeline.
	PipelineConfig = core.PipelineConfig
	// Saga is a compensatable pipeline (Section 7).
	Saga = core.Saga
	// SagaConfig configures a Saga.
	SagaConfig = core.SagaConfig
	// SagaStep pairs an action with its compensation.
	SagaStep = core.SagaStep
	// CancelOutcome classifies a cancellation.
	CancelOutcome = core.CancelOutcome
	// InteractiveSession drives a fig. 7 interactive request.
	InteractiveSession = core.InteractiveSession
	// ConvHandler runs one round of a pseudo-conversation.
	ConvHandler = core.ConvHandler
	// ConvServerConfig configures a conversational server.
	ConvServerConfig = core.ConvServerConfig
	// SequentialClient is the fig. 2 fault-tolerant client program.
	SequentialClient = core.SequentialClient
	// QMConn is the clerk's connection to a queue manager.
	QMConn = core.QMConn
	// AppLocks is the persistent application-lock table (Section 6).
	AppLocks = core.AppLocks
	// ThreadedClerk is the Section 5 in-client concurrency extension.
	ThreadedClerk = core.ThreadedClerk
	// BranchReq is one branch of a Section 6 fork/join.
	BranchReq = core.BranchReq
	// StreamClerk is the Section 11 streaming extension (Mercury-style
	// pipelined requests and replies).
	StreamClerk = core.StreamClerk
	// ResilientClerk is a self-healing clerk: it masks transport faults
	// by re-running the fig. 2 client recovery automatically.
	ResilientClerk = core.ResilientClerk
	// ResilientConfig configures a ResilientClerk.
	ResilientConfig = core.ResilientConfig
	// BackoffPolicy shapes a ResilientClerk's retry delays.
	BackoffPolicy = core.BackoffPolicy

	// Logger is the structured, leveled event logger every layer of a
	// node reports through (see NodeConfig.Log).
	Logger = rlog.Logger
	// LogLevel orders log severities (rlog.LevelDebug … rlog.LevelOff).
	LogLevel = rlog.Level
	// LogEvent is one structured log record.
	LogEvent = rlog.Event
	// LogField is one structured key/value log annotation (built with
	// LogStr / LogInt / LogErr / …).
	LogField = rlog.Field
	// MetricsHistoryReport is a windowed delta/rate view over the node's
	// metrics-history ring (see Node.History).
	MetricsHistoryReport = obs.HistoryReport
	// FlightDump is a black-box flight-recorder document (see
	// Node.Flight).
	FlightDump = flight.Dump
)

// Re-exported constructors and constants.
var (
	// NewClerk returns a disconnected clerk.
	NewClerk = core.NewClerk
	// NewServer returns a server loop.
	NewServer = core.NewServer
	// NewPipeline creates a multi-transaction pipeline.
	NewPipeline = core.NewPipeline
	// NewSaga creates a compensatable pipeline.
	NewSaga = core.NewSaga
	// ServeConversational runs a pseudo-conversational server.
	ServeConversational = core.ServeConversational
	// Failf builds an application-level failure (committed error reply).
	Failf = core.Failf
	// NewRequestElement builds a request element for direct (batch)
	// enqueueing without a clerk.
	NewRequestElement = core.NewRequestElement
	// NewThreadedClerk returns a clerk with n independent threads.
	NewThreadedClerk = core.NewThreadedClerk
	// NewResilientClerk returns a self-healing clerk.
	NewResilientClerk = core.NewResilientClerk
	// NewStreamClerk returns a windowed streaming clerk (Section 11).
	NewStreamClerk = core.NewStreamClerk
	// Fork fans a request out to parallel branches with a trigger-based
	// join (Section 6).
	Fork = core.Fork
	// CollectJoin drains a fork's branch replies.
	CollectJoin = core.CollectJoin
	// DestroyJoin tears down a fork's staging queue.
	DestroyJoin = core.DestroyJoin
	// NewLogger builds a structured logger (see NodeConfig.Log). Sinks
	// come from NewJSONLogSink / NewTextLogSink.
	NewLogger = rlog.New
	// NewJSONLogSink renders events as one JSON object per line.
	NewJSONLogSink = rlog.NewJSONSink
	// NewTextLogSink renders events as human-readable lines.
	NewTextLogSink = rlog.NewTextSink
	// ParseLogLevel parses "debug"/"info"/"warn"/"error"/"off".
	ParseLogLevel = rlog.ParseLevel
	// NewMetrics builds a fresh metrics registry (see NodeConfig.Metrics).
	NewMetrics = obs.NewRegistry
	// Log field constructors.
	LogStr    = rlog.Str
	LogInt    = rlog.Int
	LogInt64  = rlog.Int64
	LogUint64 = rlog.Uint64
	LogBool   = rlog.Bool
	LogDur    = rlog.Dur
	LogErr    = rlog.Err
)

// Log levels for NewLogger.
const (
	LogDebug = rlog.LevelDebug
	LogInfo  = rlog.LevelInfo
	LogWarn  = rlog.LevelWarn
	LogError = rlog.LevelError
	LogOff   = rlog.LevelOff
)

// Re-exported error sentinels, matched with errors.Is.
var (
	// ErrQueueExists reports creation of a queue that already exists.
	ErrQueueExists = queue.ErrQueueExists
	// ErrEmpty reports a dequeue from an empty queue.
	ErrEmpty = queue.ErrEmpty
	// ErrNoQueue reports an operation on a queue that does not exist.
	ErrNoQueue = queue.ErrNoQueue
)

// Cancellation outcomes.
const (
	NotCancelable            = core.NotCancelable
	CanceledImmediately      = core.CanceledImmediately
	CanceledWithCompensation = core.CanceledWithCompensation
	StatusOK                 = core.StatusOK
	StatusError              = core.StatusError
	StatusCanceled           = core.StatusCanceled
)

// NodeConfig configures a back-end node.
type NodeConfig struct {
	// Dir is the node's durable state directory.
	Dir string
	// Name is the node's (and its repository's) unique name; empty derives
	// it from Dir.
	Name string
	// ListenAddr, when non-empty, serves the queue manager over RPC
	// ("127.0.0.1:0" picks a port; see Node.Addr).
	ListenAddr string
	// AdminAddr, when non-empty, serves the admin HTTP endpoint: GET
	// /metrics returns the node's metrics registry as JSON (see
	// Node.AdminAddr for the bound address).
	AdminAddr string
	// Metrics, when non-nil, is the registry every layer of the node
	// (WAL, locks, transactions, queues, RPC server) records into; nil
	// creates a private one, retrievable via Node.Metrics.
	Metrics *obs.Registry
	// NoFsync disables physical fsync (tests and benchmarks only).
	NoFsync bool
	// SnapshotEvery checkpoints after that many logged operations; zero
	// disables automatic checkpoints.
	SnapshotEvery int
	// GroupCommit is ignored: every node's log group-commits — concurrent
	// commits share fsyncs, and locks release once the commit record is
	// staged, with only the acknowledgement waiting for the force.
	//
	// Deprecated: it remains so that existing callers compile.
	GroupCommit bool
	// GroupCommitMaxDelay is the writer's deliberate batching window:
	// after a batch's first record it waits up to this long for more
	// committers before forcing. Zero flushes as soon as a committer asks
	// and no flush is in flight (natural batching only).
	GroupCommitMaxDelay time.Duration
	// GroupCommitMaxBatchBytes forces a flush once this many bytes are
	// staged (zero = 1 MiB).
	GroupCommitMaxBatchBytes int
	// GroupCommitMaxWaiters cuts the delay window short once this many
	// committers are blocked on the force (zero = no waiter cutoff).
	GroupCommitMaxWaiters int
	// Resolver resolves in-doubt distributed transactions found at
	// recovery; nil uses only the node's own coordinator (presumed abort
	// for foreign ones).
	Resolver tpc.Resolver
	// Trace enables request tracing: every layer records spans into a
	// bounded in-memory ring, queryable via the admin endpoint
	// (GET /trace/{id}, GET /traces?slowest=N), qmctl, or Node.Tracer.
	Trace bool
	// TraceSpans caps the trace ring (spans retained across all traces);
	// zero uses 4096. Oldest spans are overwritten first.
	TraceSpans int
	// SlowTrace, when > 0 (and Trace is on), emits the full span tree of
	// any request slower than this as one JSON line to TraceSink.
	SlowTrace time.Duration
	// TraceSink receives slow-trace lines; nil uses os.Stderr.
	TraceSink io.Writer
	// MaxInflight caps concurrently executing RPC requests node-wide;
	// excess requests are shed with a retryable busy response. Zero means
	// unlimited.
	MaxInflight int
	// MaxInflightPerConn caps concurrently executing requests per client
	// connection. Zero means unlimited.
	MaxInflightPerConn int
	// Log, when non-nil, receives structured events from every layer of
	// the node (WAL, queue repository, RPC server, coordinator). The node
	// additionally attaches a bounded in-memory ring to it so recent
	// events are queryable via GET /logs, qmctl logs, and flight dumps.
	// Nil disables logging entirely (the disabled path is zero-alloc).
	Log *rlog.Logger
	// LogEvents caps the in-memory ring of recent events attached to Log;
	// zero uses 1024.
	LogEvents int
	// WALFS, when non-nil, supplies the WAL's segment files; fault-
	// injection tests interpose internal/chaos/walfault here. Nil uses
	// the real filesystem.
	WALFS wal.VFS
	// MetricsHistory, when > 0, samples the metrics registry on this
	// interval into a bounded time-series ring, enabling GET
	// /metrics/history?window=…, qmctl top's rate view, and the
	// rate-based health probes. Zero disables history.
	MetricsHistory time.Duration
	// MetricsHistorySamples caps the history ring; zero keeps 120
	// samples (two minutes at the default 1s interval).
	MetricsHistorySamples int
	// Flight enables the black-box flight recorder: recent events,
	// metric history, and slow-trace summaries are dumped to FlightPath
	// on SIGQUIT and queryable live via GET /debug/flight.
	Flight bool
	// FlightPath is the dump destination; empty uses
	// Dir/flight-<pid>.json.
	FlightPath string
	// FlightEvents caps the events section of a dump; zero uses 256.
	FlightEvents int
	// Replication, when non-nil, makes the node a replicating primary:
	// its WAL and snapshots ship to a standby (StartStandby) and, in sync
	// mode, no commit is acknowledged before the standby has the bytes —
	// zero acked loss across failover. See DESIGN.md §12.
	Replication *ReplicationConfig
}

// Node is a running back-end node.
type Node struct {
	repo      *queue.Repository
	coord     *tpc.Coordinator
	tracer    *trace.Tracer // nil when tracing is off
	rpcSrv    *rpc.Server
	addr      string
	adminSrv  *http.Server
	adminLis  net.Listener
	adminAddr string

	logger  *rlog.Logger     // nil when logging is off
	ring    *rlog.Ring       // recent-events ring (nil when logging is off)
	history *obs.History     // nil when MetricsHistory is zero
	flight  *flight.Recorder // nil when Flight is off

	sender     *replica.Sender    // nil unless Replication was configured
	replCfg    *ReplicationConfig // nil unless Replication was configured
	replCancel context.CancelFunc // stops the background shipper
	replDone   chan struct{}      // closed when the shipper exits
}

// StartNode opens (recovering if necessary) a node. In-doubt distributed
// transactions found during recovery are resolved through the configured
// resolver with presumed abort.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		cfg.Name = filepath.Base(cfg.Dir)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var tracer *trace.Tracer
	if cfg.Trace {
		capacity := cfg.TraceSpans
		if capacity <= 0 {
			capacity = 4096
		}
		tracer = trace.New(capacity, reg)
		tracer.SetEnabled(true)
		if cfg.SlowTrace > 0 {
			sink := cfg.TraceSink
			if sink == nil {
				sink = os.Stderr
			}
			tracer.SetSlowThreshold(cfg.SlowTrace, sink)
		}
	}
	logger := cfg.Log
	var ring *rlog.Ring
	if logger != nil {
		capacity := cfg.LogEvents
		if capacity <= 0 {
			capacity = 1024
		}
		ring = rlog.NewRing(capacity)
		logger.AddSink(ring)
	}
	// The replication sender exists before the repository opens so the
	// WAL's commit gate is in force from the very first flush — no
	// un-gated durability window.
	var sender *replica.Sender
	var walGate wal.Gate
	if cfg.Replication != nil {
		var err error
		sender, err = startReplication(cfg.Replication, cfg.Dir, reg, logger)
		if err != nil {
			return nil, err
		}
		sender.SetLeaseTTL(cfg.Replication.LeaseTTL)
		walGate = sender.Gate
	}
	repo, inDoubt, err := queue.Open(cfg.Dir, queue.Options{
		Name:          cfg.Name,
		NoFsync:       cfg.NoFsync,
		SnapshotEvery: cfg.SnapshotEvery,
		Metrics:       reg,
		Tracer:        tracer,
		Logger:        logger,
		WALFS:         cfg.WALFS,
		WALGate:       walGate,

		GroupCommitMaxDelay:      cfg.GroupCommitMaxDelay,
		GroupCommitMaxBatchBytes: cfg.GroupCommitMaxBatchBytes,
		GroupCommitMaxWaiters:    cfg.GroupCommitMaxWaiters,
	})
	if err != nil {
		return nil, fmt.Errorf("rrq: open node %s: %w", cfg.Name, err)
	}
	coord, err := tpc.OpenCoordinator(cfg.Name+".coord", filepath.Join(cfg.Dir, "coord"), cfg.NoFsync)
	if err != nil {
		repo.Close()
		return nil, fmt.Errorf("rrq: open coordinator: %w", err)
	}
	resolver := cfg.Resolver
	if resolver == nil {
		reg := tpc.NewRegistry()
		reg.Add(coord.Name(), coord)
		resolver = reg
	}
	tpc.ResolveInDoubt(inDoubt, resolver)
	repo.RecheckTriggers()
	coord.SetTracer(tracer)
	coord.SetLogger(logger)

	n := &Node{repo: repo, coord: coord, tracer: tracer, logger: logger, ring: ring}
	if sender != nil {
		n.sender = sender
		n.replCfg = cfg.Replication
		n.replDone = make(chan struct{})
		interval := cfg.Replication.ShipInterval
		if interval <= 0 {
			interval = 50 * time.Millisecond
		}
		ctx, cancel := context.WithCancel(context.Background())
		n.replCancel = cancel
		go func() {
			defer close(n.replDone)
			sender.Run(ctx, interval)
		}()
	}
	if cfg.MetricsHistory > 0 {
		keep := cfg.MetricsHistorySamples
		if keep <= 0 {
			keep = 120
		}
		n.history = obs.NewHistory(reg, keep, cfg.MetricsHistory)
		n.history.Start()
	}
	if cfg.Flight {
		path := cfg.FlightPath
		if path == "" {
			path = filepath.Join(cfg.Dir, fmt.Sprintf("flight-%d.json", os.Getpid()))
		}
		maxEvents := cfg.FlightEvents
		if maxEvents <= 0 {
			maxEvents = 256
		}
		n.flight = flight.New(flight.Config{
			Node:      cfg.Name,
			Events:    ring,
			MaxEvents: maxEvents,
			History:   n.history,
			Tracer:    tracer,
			Registry:  reg,
			Path:      path,
			Logger:    logger,
		})
		n.flight.ArmSignal()
	}
	if cfg.ListenAddr != "" {
		n.rpcSrv = rpc.NewServerWith(reg)
		n.rpcSrv.SetLimits(rpc.Limits{MaxInflight: cfg.MaxInflight, MaxPerConn: cfg.MaxInflightPerConn})
		n.rpcSrv.SetLogger(logger)
		svc := qservice.New(repo, n.rpcSrv)
		svc.SetAux(qservice.AuxProviders{
			Health: func() ([]byte, error) { return json.Marshal(n.Health()) },
			Logs:   n.logsJSON,
			Flight: n.flightJSON,
			Repl:   n.replJSON,
		})
		if n.sender != nil {
			// The lease endpoint lives on the primary's own port: the
			// standby pings the node it replicates from.
			replica.RegisterSender(n.rpcSrv, n.sender)
		}
		addr, err := n.rpcSrv.ListenAndServe(cfg.ListenAddr)
		if err != nil {
			n.stopObs()
			repo.Close()
			coord.Close()
			return nil, fmt.Errorf("rrq: listen: %w", err)
		}
		n.addr = addr
	}
	if cfg.AdminAddr != "" {
		if err := n.startAdmin(cfg.AdminAddr); err != nil {
			n.Close()
			return nil, fmt.Errorf("rrq: admin listen: %w", err)
		}
	}
	if logger != nil {
		logger.Named("node").Info("node started",
			rlog.Str("name", cfg.Name),
			rlog.Str("addr", n.addr),
			rlog.Str("admin", n.adminAddr),
			rlog.Bool("flight", n.flight != nil),
			rlog.Bool("history", n.history != nil))
	}
	return n, nil
}

// stopObs tears down the observability plane: the history sampler's
// goroutine and the flight recorder's signal handler.
func (n *Node) stopObs() {
	if n.history != nil {
		n.history.Stop()
	}
	if n.flight != nil {
		n.flight.Disarm()
	}
}

// logsJSON renders up to max recent ring events (all when max <= 0) as a
// JSON array, oldest first.
func (n *Node) logsJSON(max int) ([]byte, error) {
	if n.ring == nil {
		return nil, fmt.Errorf("%w: structured logging not enabled on this node", queue.ErrNotFound)
	}
	return json.Marshal(n.ring.Recent(max))
}

// flightJSON builds a live flight snapshot (no goroutine stacks — those
// are for post-mortem dumps) as indented JSON.
func (n *Node) flightJSON() ([]byte, error) {
	if n.flight == nil {
		return nil, fmt.Errorf("%w: flight recorder not enabled on this node", queue.ErrNotFound)
	}
	d := n.flight.Snapshot("request", false)
	return json.MarshalIndent(d, "", "  ")
}

// Flight returns the node's flight recorder, or nil when
// NodeConfig.Flight was off.
func (n *Node) Flight() *flight.Recorder { return n.flight }

// startAdmin serves the admin HTTP endpoint:
//
//	GET /metrics            the metrics registry as deterministic JSON
//	GET /metrics/history    windowed counter deltas/rates (?window=30s)
//	GET /healthz            liveness: 200 unless a hard component failed
//	GET /readyz             readiness: like /healthz, plus 503 while warming
//	GET /logs               recent structured events (?max=N)
//	GET /debug/flight       live flight-recorder snapshot
//	GET /trace/{id}         one request's assembled span tree as JSON
//	GET /traces?slowest=N   summaries of the N slowest retained traces
//	GET /debug/pprof/...    net/http/pprof profiles
//
// Non-GET methods get 405. The server carries read timeouts so a stuck
// peer cannot pin a connection; the write timeout is generous because
// pprof profile captures stream for their ?seconds duration.
func (n *Node) startAdmin(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		j, err := n.repo.Metrics().MarshalJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(j)
		w.Write([]byte("\n"))
	})
	mux.HandleFunc("/metrics/history", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if n.history == nil {
			http.Error(w, "metrics history not enabled (NodeConfig.MetricsHistory)", http.StatusNotFound)
			return
		}
		window := 30 * time.Second
		if s := req.URL.Query().Get("window"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil || d <= 0 {
				http.Error(w, "bad window parameter (want e.g. 30s)", http.StatusBadRequest)
				return
			}
			window = d
		}
		rep, ok := n.history.Report(window)
		if !ok {
			http.Error(w, "history warming up (need two samples)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		j, err := json.Marshal(rep)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(j)
		w.Write([]byte("\n"))
	})
	health := func(ready bool) http.HandlerFunc {
		return func(w http.ResponseWriter, req *http.Request) {
			if req.Method != http.MethodGet {
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			h := n.Health()
			code := http.StatusOK
			if h.Status == HealthFail {
				code = http.StatusServiceUnavailable
			}
			// Readiness is stricter: a degraded node serves traffic but
			// should be rotated out of new-connection balancing.
			if ready && h.Status != HealthOK {
				code = http.StatusServiceUnavailable
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			j, _ := json.Marshal(h)
			w.Write(j)
			w.Write([]byte("\n"))
		}
	}
	mux.HandleFunc("/healthz", health(false))
	mux.HandleFunc("/readyz", health(true))
	mux.HandleFunc("/logs", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		max := 100
		if s := req.URL.Query().Get("max"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				http.Error(w, "bad max parameter", http.StatusBadRequest)
				return
			}
			max = v
		}
		j, err := n.logsJSON(max)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(j)
		w.Write([]byte("\n"))
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		j, err := n.flightJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(j)
		w.Write([]byte("\n"))
	})
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		idStr := strings.TrimPrefix(req.URL.Path, "/trace/")
		id, err := trace.ParseID(idStr)
		if err != nil {
			http.Error(w, "bad trace id: "+err.Error(), http.StatusBadRequest)
			return
		}
		nodes := n.repo.Tracer().Trace(id)
		if len(nodes) == 0 {
			http.Error(w, "trace not found", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		j, err := json.Marshal(nodes)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(j)
		w.Write([]byte("\n"))
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		nSlow := 10
		if s := req.URL.Query().Get("slowest"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				http.Error(w, "bad slowest parameter", http.StatusBadRequest)
				return
			}
			nSlow = v
		}
		sums := n.repo.Tracer().Slowest(nSlow)
		if sums == nil {
			sums = []trace.Summary{}
		}
		w.Header().Set("Content-Type", "application/json")
		j, err := json.Marshal(sums)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(j)
		w.Write([]byte("\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	n.adminSrv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	n.adminLis = lis
	n.adminAddr = lis.Addr().String()
	go n.adminSrv.Serve(lis)
	return nil
}

// Repo exposes the node's repository for servers (which are co-located
// with their queue manager, per the paper's system model).
func (n *Node) Repo() *queue.Repository { return n.repo }

// Coordinator exposes the node's two-phase-commit coordinator.
func (n *Node) Coordinator() *tpc.Coordinator { return n.coord }

// Addr returns the RPC address ("" if not listening).
func (n *Node) Addr() string { return n.addr }

// AdminAddr returns the admin HTTP address ("" if not serving).
func (n *Node) AdminAddr() string { return n.adminAddr }

// Metrics returns the registry all of the node's layers record into.
func (n *Node) Metrics() *obs.Registry { return n.repo.Metrics() }

// Tracer returns the node's tracer, or nil when tracing is off. A nil
// tracer is safe to call: every method no-ops.
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// LocalConn returns an in-process clerk connection to this node.
func (n *Node) LocalConn() QMConn { return &core.LocalConn{Repo: n.repo} }

// CreateQueue creates a queue on the node.
func (n *Node) CreateQueue(cfg QueueConfig) error { return n.repo.CreateQueue(cfg) }

// Begin starts a local transaction on the node.
func (n *Node) Begin() *Txn { return n.repo.Begin() }

// TransferElement moves the next element of fromQueue on this node into
// toQueue on another node as one distributed transaction (two-phase
// commit); ErrEmpty when there is nothing to move. RunForwarder loops
// this.
func (n *Node) TransferElement(ctx context.Context, fromQueue string, dst *Node, toQueue string) error {
	return n.transferOne(ctx, fromQueue, dst, toQueue, false)
}

// RunForwarder drains fromQueue on this node into toQueue on dst, each
// move one distributed transaction, until ctx ends. This is the paper's
// availability pattern (Section 1): "if a client enqueues its requests to
// a local queue, and periodically moves its local requests to the remote
// input queue of a server process, then the server appears to provide a
// reliable service to the client even if the client and server nodes are
// frequently partitioned". Transfer failures (the destination down, a
// partition) back off and retry; nothing is ever lost or duplicated — the
// element either moved atomically or stayed.
func (n *Node) RunForwarder(ctx context.Context, fromQueue string, dst *Node, toQueue string) {
	for ctx.Err() == nil {
		err := n.transferOne(ctx, fromQueue, dst, toQueue, true)
		if err == nil {
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (n *Node) transferOne(ctx context.Context, fromQueue string, dst *Node, toQueue string, wait bool) error {
	tSrc := n.repo.Begin()
	el, err := n.repo.Dequeue(ctx, tSrc, fromQueue, "", queue.DequeueOpts{Wait: wait})
	if err != nil {
		tSrc.Abort()
		return err
	}
	tDst := dst.repo.Begin()
	moved := el
	moved.EID = 0 // the element keeps its trace id across nodes
	if ref := el.TraceRef(); ref.Valid() {
		tSrc.SetTrace(ref)
		tDst.SetTrace(ref)
	}
	if _, err := dst.repo.Enqueue(tDst, toQueue, moved, "", nil); err != nil {
		tSrc.Abort()
		tDst.Abort()
		return err
	}
	g := n.coord.Begin()
	g.SetTrace(el.TraceRef())
	g.Enlist(&tpc.LocalBranch{Label: n.repo.Name(), Txn: tSrc})
	g.Enlist(&tpc.LocalBranch{Label: dst.repo.Name(), Txn: tDst})
	return g.Commit()
}

// stopReplication halts the background shipper (idempotent).
func (n *Node) stopReplication() {
	if n.replCancel != nil {
		n.replCancel()
		<-n.replDone
	}
}

// Crash simulates a node crash (tests and experiments): all volatile state
// is abandoned; StartNode on the same directory recovers.
func (n *Node) Crash() {
	n.stopReplication()
	n.stopObs()
	n.repo.Crash()
	if n.rpcSrv != nil {
		n.rpcSrv.Close()
	}
	n.closeAdmin()
	n.coord.Close()
}

func (n *Node) closeAdmin() {
	if n.adminSrv != nil {
		n.adminSrv.Close()
		n.adminSrv = nil
	}
}

// Close checkpoints and shuts the node down.
func (n *Node) Close() error {
	n.stopReplication()
	n.stopObs()
	if n.rpcSrv != nil {
		n.rpcSrv.Close()
	}
	n.closeAdmin()
	err := n.repo.Close()
	if cerr := n.coord.Close(); err == nil {
		err = cerr
	}
	if n.logger != nil {
		n.logger.Named("node").Info("node closed", rlog.Str("name", n.repo.Name()), rlog.Err(err))
	}
	return err
}

// Dial returns a clerk connection to a remote node.
func Dial(addr string) QMConn {
	return qservice.NewClient(rpc.NewClient(addr, nil))
}
