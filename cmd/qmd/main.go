// Command qmd runs a queue-manager node: a recoverable queue repository
// served over RPC (the back-end of the paper's fig. 4). Clients connect
// with rrq.Dial or the qmctl tool.
//
//	qmd -dir /var/lib/qmd -listen 127.0.0.1:7070 -queues requests,requests.err
//
// The whole process lifetime — startup, queue creation, recovery,
// shutdown — reports through the structured event logger, so
// -log-format=json yields machine-parseable output from the first line
// to the last.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/rrq"
)

func main() {
	var (
		dir      = flag.String("dir", "", "durable state directory (required)")
		listen   = flag.String("listen", "127.0.0.1:7070", "RPC listen address")
		admin    = flag.String("admin", "", "admin HTTP listen address (/metrics, /metrics/history, /healthz, /readyz, /logs, /debug/flight, /trace/{id})")
		name     = flag.String("name", "", "node name (default: basename of -dir)")
		queues   = flag.String("queues", "", "comma-separated queues to create at startup")
		snapshot = flag.Int("snapshot-every", 10000, "checkpoint after this many logged operations")
		noFsync  = flag.Bool("no-fsync", false, "disable fsync (testing only)")
		gcDelay  = flag.Duration("group-commit-max-delay", 0, "group-commit batching window; the writer waits up to this long for more committers before forcing (0 = flush when free)")
		gcBytes  = flag.Int("group-commit-max-batch-bytes", 0, "force a group-commit flush once this many bytes are staged (0 = 1MiB)")
		gcWait   = flag.Int("group-commit-max-waiters", 0, "cut the group-commit delay window short once this many committers are waiting (0 = no cutoff)")
		traceOn  = flag.Bool("trace", false, "record request span trees (GET /trace/{id} on the admin endpoint)")
		traceCap = flag.Int("trace-spans", 4096, "trace ring capacity in spans")
		slow     = flag.Duration("trace-slow", 0, "emit span trees of requests slower than this to stderr (0 disables)")
		maxInfl  = flag.Int("max-inflight", 0, "cap on concurrently executing RPC requests node-wide; excess shed as retryable busy (0 = unlimited)")
		maxConn  = flag.Int("max-inflight-per-conn", 0, "cap on concurrently executing requests per client connection (0 = unlimited)")

		logLevel  = flag.String("log-level", "info", "structured log level: debug|info|warn|error|off")
		logFormat = flag.String("log-format", "text", "structured log rendering: text|json")
		logEvents = flag.Int("log-events", 1024, "in-memory ring of recent events (qmctl logs, GET /logs, flight dumps)")
		history   = flag.Duration("metrics-history", time.Second, "metrics-history sampling interval (GET /metrics/history, rate-based health probes; 0 disables)")
		histKeep  = flag.Int("metrics-history-samples", 120, "metrics-history ring capacity in samples")
		flightOn  = flag.Bool("flight", false, "arm the flight recorder: dump recent events, metric history, and slow traces to -flight-path on SIGQUIT")
		flightTo  = flag.String("flight-path", "", "flight dump destination (default: DIR/flight-<pid>.json)")
		flightEv  = flag.Int("flight-events", 256, "events retained in a flight dump")

		replTo      = flag.String("replicate-to", "", "standby RPC address to ship the WAL to (makes this node a replicating primary)")
		replMode    = flag.String("repl-mode", "sync", "replication commit rule: sync|semisync|async")
		replLagRecs = flag.Uint64("repl-max-lag-records", 0, "semisync: max unacked records before commits block (0 = 256)")
		replLagByts = flag.Int64("repl-max-lag-bytes", 0, "semisync: max unacked bytes before commits block (0 = 1MiB)")
		replRetries = flag.Int("repl-ship-retries", 0, "sync-mode ship attempts per commit before the failure action (0 = 3)")
		replDegrade = flag.Bool("repl-degrade-to-async", false, "drop to async shipping when sync-mode retries exhaust, instead of poisoning the WAL")
		replEvery   = flag.Duration("repl-ship-interval", 0, "background ship interval (0 = 50ms)")
		replTTL     = flag.Duration("repl-lease-ttl", time.Second, "failover lease TTL advertised to the standby")

		standby     = flag.Bool("standby", false, "run as a warm standby: receive the replication stream on -listen, lease-watch -primary, self-promote to a live node on lease expiry")
		primaryAddr = flag.String("primary", "", "standby mode: the primary's RPC address to lease-ping")
		pingEvery   = flag.Duration("ping-every", 0, "standby mode: lease ping interval (0 = TTL/4)")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "qmd: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	level, err := rrq.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qmd: %v\n", err)
		os.Exit(2)
	}
	reg := rrq.NewMetrics()
	var logger *rrq.Logger
	switch *logFormat {
	case "json":
		logger = rrq.NewLogger(level, reg, rrq.NewJSONLogSink(os.Stderr))
	case "text":
		logger = rrq.NewLogger(level, reg, rrq.NewTextLogSink(os.Stderr))
	default:
		fmt.Fprintf(os.Stderr, "qmd: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	qlog := logger.Named("qmd")
	fatalf := func(msg string, fields ...rrq.LogField) {
		qlog.Error(msg, fields...)
		os.Exit(1)
	}

	var replCfg *rrq.ReplicationConfig
	if *replTo != "" {
		mode, err := rrq.ParseReplicationMode(*replMode)
		if err != nil {
			fatalf("bad -repl-mode", rrq.LogErr(err))
		}
		replCfg = &rrq.ReplicationConfig{
			Mode:           mode,
			StandbyAddr:    *replTo,
			MaxLagRecords:  *replLagRecs,
			MaxLagBytes:    *replLagByts,
			ShipRetries:    *replRetries,
			DegradeToAsync: *replDegrade,
			ShipInterval:   *replEvery,
			LeaseTTL:       *replTTL,
		}
	}

	startLive := func() (*rrq.Node, error) {
		return rrq.StartNode(rrq.NodeConfig{
			Dir:           *dir,
			Name:          *name,
			ListenAddr:    *listen,
			AdminAddr:     *admin,
			Metrics:       reg,
			NoFsync:       *noFsync,
			SnapshotEvery: *snapshot,
			Trace:         *traceOn || *slow > 0,

			GroupCommitMaxDelay:      *gcDelay,
			GroupCommitMaxBatchBytes: *gcBytes,
			GroupCommitMaxWaiters:    *gcWait,
			TraceSpans:               *traceCap,
			SlowTrace:                *slow,

			MaxInflight:        *maxInfl,
			MaxInflightPerConn: *maxConn,

			Log:                   logger,
			LogEvents:             *logEvents,
			MetricsHistory:        *history,
			MetricsHistorySamples: *histKeep,
			Flight:                *flightOn,
			FlightPath:            *flightTo,
			FlightEvents:          *flightEv,
			Replication:           replCfg,
		})
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var node *rrq.Node
	if *standby {
		// Warm-standby mode: receive the replication stream on -listen,
		// lease-watch the primary, and on lease expiry promote this very
		// process into a live node over the replicated directory.
		if *primaryAddr == "" {
			fmt.Fprintln(os.Stderr, "qmd: -standby requires -primary")
			os.Exit(2)
		}
		promoted := make(chan uint64, 1)
		sb, err := rrq.StartStandby(rrq.StandbyConfig{
			Dir:         *dir,
			ListenAddr:  *listen,
			PrimaryAddr: *primaryAddr,
			LeaseTTL:    *replTTL,
			PingEvery:   *pingEvery,
			NoFsync:     *noFsync,
			Metrics:     reg,
			Log:         logger,
			OnPromote:   func(e uint64) { promoted <- e },
		})
		if err != nil {
			fatalf("standby start failed", rrq.LogErr(err))
		}
		qlog.Info("standby serving",
			rrq.LogStr("addr", sb.Addr()),
			rrq.LogStr("primary", *primaryAddr),
			rrq.LogDur("lease_ttl", *replTTL),
			rrq.LogUint64("epoch", sb.Epoch()))
		select {
		case s := <-sig:
			qlog.Info("standby shutting down", rrq.LogStr("signal", s.String()))
			sb.Close()
			return
		case epoch := <-promoted:
			qlog.Info("lease expired; promoting to primary", rrq.LogUint64("epoch", epoch))
			// The standby's RPC server just released -listen; rebinding can
			// race the kernel briefly.
			for attempt := 0; ; attempt++ {
				node, err = startLive()
				if err == nil {
					break
				}
				if attempt >= 20 {
					fatalf("promotion start failed", rrq.LogErr(err))
				}
				time.Sleep(50 * time.Millisecond)
			}
		}
	} else {
		var err error
		node, err = startLive()
		if err != nil {
			fatalf("start failed", rrq.LogErr(err))
		}
	}
	if rec := node.Flight(); rec != nil {
		defer rec.DumpOnPanic()
	}
	for _, q := range strings.Split(*queues, ",") {
		q = strings.TrimSpace(q)
		if q == "" {
			continue
		}
		if err := node.CreateQueue(rrq.QueueConfig{Name: q}); err != nil && !errors.Is(err, rrq.ErrQueueExists) {
			fatalf("create queue failed", rrq.LogStr("queue", q), rrq.LogErr(err))
		}
	}
	qlog.Info("serving",
		rrq.LogStr("node", node.Repo().Name()),
		rrq.LogStr("addr", node.Addr()),
		rrq.LogStr("dir", *dir))
	if a := node.AdminAddr(); a != "" {
		qlog.Info("admin endpoint up", rrq.LogStr("url", "http://"+a+"/metrics"))
	}
	if node.Tracer() != nil {
		qlog.Info("tracing enabled", rrq.LogInt("span_ring", *traceCap))
	}
	if st := node.Replication(); st != nil {
		qlog.Info("replicating",
			rrq.LogStr("mode", st.Mode),
			rrq.LogStr("standby", *replTo),
			rrq.LogUint64("epoch", st.Epoch))
	}
	for _, q := range node.Repo().Queues() {
		d, _ := node.Repo().Depth(q)
		qlog.Info("queue ready", rrq.LogStr("queue", q), rrq.LogInt("depth", d))
	}

	s := <-sig
	qlog.Info("shutting down (checkpointing)", rrq.LogStr("signal", s.String()))
	if err := node.Close(); err != nil {
		fatalf("close failed", rrq.LogErr(err))
	}
}
