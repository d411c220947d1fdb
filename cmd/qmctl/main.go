// Command qmctl administers a running qmd node over RPC.
//
//	qmctl -addr 127.0.0.1:7070 create -queue work -error-queue work.err -retry 3
//	qmctl -addr 127.0.0.1:7070 enqueue -queue work -body 'hello' -priority 5
//	qmctl -addr 127.0.0.1:7070 dequeue -queue work -wait 5s
//	qmctl -addr 127.0.0.1:7070 depth -queue work
//	qmctl -addr 127.0.0.1:7070 stats                 # full metrics registry
//	qmctl -addr 127.0.0.1:7070 stats -queue work     # one queue's counters
//	qmctl -addr 127.0.0.1:7070 read -eid 42
//	qmctl -addr 127.0.0.1:7070 kill -eid 42
//	qmctl -addr 127.0.0.1:7070 trace 4f3c…            # one request's span tree
//	qmctl -addr 127.0.0.1:7070 traces -slowest 5      # slowest retained traces
//	qmctl -addr 127.0.0.1:7070 health                 # component health (exit 1 on fail)
//	qmctl -addr 127.0.0.1:7070 logs -max 50           # recent structured events
//	qmctl -addr 127.0.0.1:7070 flight                 # live flight-recorder snapshot
//	qmctl -addr 127.0.0.1:7070 top -interval 2s       # live per-queue rate view
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/queue/qservice"
	"repro/internal/rpc"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: qmctl -addr HOST:PORT {create|enqueue|dequeue|depth|queues|stats|read|kill|trace|traces|health|repl|logs|flight|top} [flags]")
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "qmd RPC address")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}
	cl := qservice.NewClient(rpc.NewClient(*addr, nil))
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "create":
		fs := flag.NewFlagSet("create", flag.ExitOnError)
		name := fs.String("queue", "", "queue name")
		errq := fs.String("error-queue", "", "error queue name")
		retry := fs.Int("retry", 0, "retry limit before error-queue diversion")
		volatileQ := fs.Bool("volatile", false, "volatile (unlogged) queue")
		strict := fs.Bool("strict-fifo", false, "strict FIFO dequeue order")
		fs.Parse(rest)
		err = cl.CreateQueue(ctx, queue.QueueConfig{
			Name: *name, ErrorQueue: *errq, RetryLimit: int32(*retry),
			Volatile: *volatileQ, StrictFIFO: *strict,
		})
		if err == nil {
			fmt.Printf("created %s\n", *name)
		}
	case "enqueue":
		fs := flag.NewFlagSet("enqueue", flag.ExitOnError)
		name := fs.String("queue", "", "queue name")
		body := fs.String("body", "", "element body")
		prio := fs.Int("priority", 0, "priority (higher first)")
		replyTo := fs.String("reply-to", "", "reply queue")
		fs.Parse(rest)
		var eid queue.EID
		eid, err = cl.Enqueue(ctx, *name, queue.Element{
			Body: []byte(*body), Priority: int32(*prio), ReplyTo: *replyTo,
		}, "", nil)
		if err == nil {
			fmt.Printf("eid %d\n", eid)
		}
	case "dequeue":
		fs := flag.NewFlagSet("dequeue", flag.ExitOnError)
		name := fs.String("queue", "", "queue name")
		wait := fs.Duration("wait", 0, "block up to this long")
		fs.Parse(rest)
		var e queue.Element
		e, err = cl.Dequeue(ctx, *name, "", nil, *wait, nil)
		if err == nil {
			printElement(e)
		}
	case "depth":
		fs := flag.NewFlagSet("depth", flag.ExitOnError)
		name := fs.String("queue", "", "queue name")
		fs.Parse(rest)
		var d int
		d, err = cl.Depth(ctx, *name)
		if err == nil {
			fmt.Println(d)
		}
	case "queues":
		var names []string
		names, err = cl.Queues(ctx)
		for _, n := range names {
			fmt.Println(n)
		}
	case "stats":
		fs := flag.NewFlagSet("stats", flag.ExitOnError)
		name := fs.String("queue", "", "queue name (empty: full metrics registry)")
		fs.Parse(rest)
		if *name == "" {
			var snap obs.Snapshot
			snap, err = cl.Metrics(ctx)
			if err == nil {
				printSnapshot(snap)
			}
			break
		}
		var st queue.QueueStats
		st, err = cl.Stats(ctx, *name)
		if err == nil {
			fmt.Printf("depth=%d in-flight=%d max-depth=%d\n", st.Depth, st.InFlight, st.MaxDepth)
			fmt.Printf("enqueues=%d dequeues=%d abort-returns=%d error-diversions=%d kills=%d\n",
				st.Enqueues, st.Dequeues, st.AbortReturns, st.ErrorDiversions, st.Kills)
		}
	case "read":
		fs := flag.NewFlagSet("read", flag.ExitOnError)
		eid := fs.Uint64("eid", 0, "element id")
		fs.Parse(rest)
		var e queue.Element
		e, err = cl.Read(ctx, queue.EID(*eid))
		if err == nil {
			printElement(e)
		}
	case "trace":
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		fs.Parse(rest)
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: qmctl trace <trace-id>")
			os.Exit(2)
		}
		var j []byte
		j, err = cl.TraceTree(ctx, fs.Arg(0))
		if err == nil {
			err = printTraceTree(j)
		}
	case "traces":
		fs := flag.NewFlagSet("traces", flag.ExitOnError)
		nSlow := fs.Int("slowest", 10, "number of slowest traces to list")
		fs.Parse(rest)
		var j []byte
		j, err = cl.SlowTraces(ctx, *nSlow)
		if err == nil {
			err = printTraceSummaries(j)
		}
	case "health":
		var j []byte
		j, err = cl.Health(ctx)
		if err == nil {
			err = printHealth(j)
		}
	case "repl":
		var j []byte
		j, err = cl.Repl(ctx)
		if err == nil {
			err = printRepl(j)
		}
	case "logs":
		fs := flag.NewFlagSet("logs", flag.ExitOnError)
		max := fs.Int("max", 50, "events to fetch (most recent)")
		raw := fs.Bool("json", false, "print raw JSON instead of rendered lines")
		fs.Parse(rest)
		var j []byte
		j, err = cl.Logs(ctx, *max)
		if err == nil && *raw {
			fmt.Printf("%s\n", j)
		} else if err == nil {
			err = printLogs(j)
		}
	case "flight":
		var j []byte
		j, err = cl.Flight(ctx)
		if err == nil {
			fmt.Printf("%s\n", j)
		}
	case "top":
		fs := flag.NewFlagSet("top", flag.ExitOnError)
		interval := fs.Duration("interval", 2*time.Second, "refresh interval")
		iters := fs.Int("n", 0, "iterations before exiting (0 = until interrupted)")
		plain := fs.Bool("plain", false, "append frames instead of redrawing the screen")
		fs.Parse(rest)
		err = runTop(ctx, cl, *interval, *iters, *plain)
	case "kill":
		fs := flag.NewFlagSet("kill", flag.ExitOnError)
		eid := fs.Uint64("eid", 0, "element id")
		fs.Parse(rest)
		var killed bool
		killed, err = cl.KillElement(ctx, queue.EID(*eid))
		if err == nil {
			fmt.Printf("killed=%v\n", killed)
		}
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qmctl: %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

// printSnapshot renders the whole registry: counters and gauges as
// name=value lines, histograms as count/mean/median/p99 summaries.
func printSnapshot(s obs.Snapshot) {
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Printf("%-40s count=%d mean=%.0f p50=%d p99=%d\n",
			n, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
	}
}

// traceNode mirrors the admin endpoint's span-tree JSON.
type traceNode struct {
	Trace    string         `json:"trace"`
	Span     string         `json:"span"`
	Parent   string         `json:"parent"`
	Name     string         `json:"name"`
	Start    int64          `json:"start_ns"`
	Dur      int64          `json:"dur_ns"`
	Attrs    map[string]any `json:"attrs"`
	Children []*traceNode   `json:"children"`
}

// printTraceTree pretty-prints one span tree: each span indented under
// its parent with its offset from the trace start and its duration.
func printTraceTree(j []byte) error {
	var roots []*traceNode
	if err := json.Unmarshal(j, &roots); err != nil {
		return fmt.Errorf("decode trace tree: %w", err)
	}
	if len(roots) == 0 {
		fmt.Println("(empty trace)")
		return nil
	}
	base := roots[0].Start
	for _, r := range roots {
		if r.Start < base {
			base = r.Start
		}
	}
	fmt.Printf("trace %s\n", roots[0].Trace)
	for _, r := range roots {
		printTraceNode(r, 0, base)
	}
	return nil
}

func printTraceNode(n *traceNode, depth int, base int64) {
	var attrs []string
	for k, v := range n.Attrs {
		attrs = append(attrs, fmt.Sprintf("%s=%v", k, v))
	}
	sort.Strings(attrs)
	fmt.Printf("%s%-14s +%-12s %-12s %s\n",
		strings.Repeat("  ", depth+1), n.Name,
		time.Duration(n.Start-base), time.Duration(n.Dur),
		strings.Join(attrs, " "))
	for _, c := range n.Children {
		printTraceNode(c, depth+1, base)
	}
}

// printTraceSummaries lists the slowest retained traces, one per line.
func printTraceSummaries(j []byte) error {
	var sums []struct {
		Trace string `json:"trace"`
		Spans int    `json:"spans"`
		Start int64  `json:"start_ns"`
		Dur   int64  `json:"dur_ns"`
		Root  string `json:"root"`
	}
	if err := json.Unmarshal(j, &sums); err != nil {
		return fmt.Errorf("decode trace summaries: %w", err)
	}
	if len(sums) == 0 {
		fmt.Println("(no traces retained)")
		return nil
	}
	for _, s := range sums {
		fmt.Printf("%s  %-12s spans=%-3d %s\n",
			s.Trace, time.Duration(s.Dur), s.Spans, s.Root)
	}
	return nil
}

// printHealth renders the qm.health document and returns an error when
// the node reports a hard failure, so scripts exit non-zero.
func printHealth(j []byte) error {
	var h struct {
		Status     string `json:"status"`
		Node       string `json:"node"`
		Components []struct {
			Name   string `json:"name"`
			Status string `json:"status"`
			Detail string `json:"detail"`
		} `json:"components"`
	}
	if err := json.Unmarshal(j, &h); err != nil {
		return fmt.Errorf("decode health: %w", err)
	}
	fmt.Printf("node %s: %s\n", h.Node, h.Status)
	for _, c := range h.Components {
		line := fmt.Sprintf("  %-12s %s", c.Name, c.Status)
		if c.Detail != "" {
			line += "  (" + c.Detail + ")"
		}
		fmt.Println(line)
	}
	if h.Status == "fail" {
		return fmt.Errorf("node unhealthy")
	}
	return nil
}

// printRepl renders the qm.repl replication-status document.
func printRepl(j []byte) error {
	var st struct {
		Role         string `json:"role"`
		Mode         string `json:"mode"`
		Epoch        uint64 `json:"epoch"`
		DurableLSN   uint64 `json:"durable_lsn"`
		AckedLSN     uint64 `json:"acked_lsn"`
		AppliedLSN   uint64 `json:"applied_lsn"`
		LagRecords   uint64 `json:"lag_records"`
		LagBytes     int64  `json:"lag_bytes"`
		ShipFailures uint64 `json:"ship_failures"`
		Degraded     bool   `json:"degraded"`
		Fenced       bool   `json:"fenced"`
		Promoted     bool   `json:"promoted"`
		LeaseTTLMs   int64  `json:"lease_ttl_ms"`
		LeaseLeftMs  int64  `json:"lease_remaining_ms"`
		Err          string `json:"err"`
	}
	if err := json.Unmarshal(j, &st); err != nil {
		return fmt.Errorf("decode repl: %w", err)
	}
	fmt.Printf("role %s  epoch %d", st.Role, st.Epoch)
	if st.Mode != "" {
		fmt.Printf("  mode %s", st.Mode)
	}
	fmt.Println()
	switch st.Role {
	case "primary":
		fmt.Printf("  durable-lsn %d  acked-lsn %d  lag %d records / %d bytes\n",
			st.DurableLSN, st.AckedLSN, st.LagRecords, st.LagBytes)
		fmt.Printf("  ship-failures %d  degraded %v  fenced %v\n",
			st.ShipFailures, st.Degraded, st.Fenced)
		if st.LeaseTTLMs > 0 {
			fmt.Printf("  lease-ttl %dms\n", st.LeaseTTLMs)
		}
	case "standby":
		fmt.Printf("  applied-lsn %d  promoted %v\n", st.AppliedLSN, st.Promoted)
		fmt.Printf("  lease-ttl %dms  lease-remaining %dms\n", st.LeaseTTLMs, st.LeaseLeftMs)
	}
	if st.Err != "" {
		fmt.Printf("  err %s\n", st.Err)
		return fmt.Errorf("replication unhealthy")
	}
	return nil
}

// printLogs renders qm.logs events (JSON objects with fixed keys ts,
// level, sub, msg plus free-form fields) as one line each.
func printLogs(j []byte) error {
	var events []map[string]any
	if err := json.Unmarshal(j, &events); err != nil {
		return fmt.Errorf("decode logs: %w", err)
	}
	if len(events) == 0 {
		fmt.Println("(no events retained)")
		return nil
	}
	fixed := map[string]bool{"ts": true, "level": true, "seq": true, "sub": true, "msg": true}
	for _, e := range events {
		ts := ""
		if v, ok := e["ts"].(float64); ok {
			ts = time.Unix(0, int64(v)).UTC().Format("2006-01-02T15:04:05.000Z")
		}
		sub, _ := e["sub"].(string)
		if sub != "" {
			sub = "[" + sub + "] "
		}
		var keys []string
		for k := range e {
			if !fixed[k] {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var kv strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&kv, " %s=%v", k, e[k])
		}
		fmt.Printf("%s %-5v %s%v%s\n", ts, e["level"], sub, e["msg"], kv.String())
	}
	return nil
}

// labeledValue extracts metrics of the form base{queue=NAME} into a
// name -> value map.
func labeledValue[V uint64 | int64](m map[string]V, base string) map[string]V {
	out := make(map[string]V)
	prefix := base + "{queue="
	for name, v := range m {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, "}") {
			out[name[len(prefix):len(name)-1]] = v
		}
	}
	return out
}

// rate renders a counter delta as an events-per-second figure.
func rate(delta uint64, window time.Duration) string {
	return fmt.Sprintf("%.1f/s", float64(delta)/window.Seconds())
}

// runTop polls the node's metrics snapshot and renders a live rate view:
// per-queue depth and enqueue/dequeue/commit rates, fsyncs-per-commit,
// rpc and ring fast-path rates — the counters' deltas between consecutive
// polls, not all-time averages.
func runTop(ctx context.Context, cl *qservice.Client, interval time.Duration, iters int, plain bool) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	var prev *obs.Snapshot
	for i := 0; iters == 0 || i < iters+1; i++ {
		callCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		snap, err := cl.Metrics(callCtx)
		cancel()
		if err != nil {
			return err
		}
		if prev != nil {
			if !plain {
				fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
			}
			printTopFrame(prev, &snap, interval)
		}
		prev = &snap
		if iters != 0 && i == iters {
			break
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(interval):
		}
	}
	return nil
}

func printTopFrame(prev, cur *obs.Snapshot, window time.Duration) {
	d := func(name string) uint64 { return cur.Counters[name] - prev.Counters[name] }

	fmt.Printf("qmctl top  %s  (window %s)\n\n", time.Now().Format("15:04:05"), window)

	// Per-queue table from the labeled gauges/counters.
	depths := labeledValue(cur.Gauges, "queue.depth")
	enq := labeledValue(cur.Counters, "queue.enqueues")
	prevEnq := labeledValue(prev.Counters, "queue.enqueues")
	deq := labeledValue(cur.Counters, "queue.dequeues")
	prevDeq := labeledValue(prev.Counters, "queue.dequeues")
	inflight := labeledValue(cur.Gauges, "queue.in_flight")
	var queues []string
	for q := range depths {
		queues = append(queues, q)
	}
	sort.Strings(queues)
	if len(queues) > 0 {
		fmt.Printf("%-24s %8s %10s %12s %12s\n", "QUEUE", "DEPTH", "IN-FLIGHT", "ENQ", "DEQ")
		for _, q := range queues {
			fmt.Printf("%-24s %8d %10d %12s %12s\n",
				q, depths[q], inflight[q],
				rate(enq[q]-prevEnq[q], window), rate(deq[q]-prevDeq[q], window))
		}
		fmt.Println()
	}

	commits := d("txn.committed")
	fsyncs := d("wal.fsyncs")
	fsyncPerCommit := "-"
	if commits > 0 {
		fsyncPerCommit = fmt.Sprintf("%.2f", float64(fsyncs)/float64(commits))
	}
	fmt.Printf("txn      commits %-10s aborts %-10s fsyncs %-10s fsyncs/commit %s\n",
		rate(commits, window), rate(d("txn.aborted"), window), rate(fsyncs, window), fsyncPerCommit)
	fmt.Printf("wal      appends %-10s bytes %-11s rotations %s\n",
		rate(d("wal.appends"), window), rate(d("wal.append_bytes"), window), rate(d("wal.rotations"), window))
	fmt.Printf("rpc      requests %-9s errors %-10s shed %s\n",
		rate(d("rpc.server.requests"), window), rate(d("rpc.server.errors"), window), rate(d("server.shed"), window))
	if ring := d("queue.fastpath_hits") + d("queue.fastpath_fallbacks"); ring > 0 {
		fmt.Printf("ring     fastpath %-9s fallbacks %s\n",
			rate(d("queue.fastpath_hits"), window), rate(d("queue.fastpath_fallbacks"), window))
	}
}

func printElement(e queue.Element) {
	fmt.Printf("eid=%d queue=%s priority=%d aborts=%d\n", e.EID, e.Queue, e.Priority, e.AbortCount)
	if e.ReplyTo != "" {
		fmt.Printf("reply-to=%s\n", e.ReplyTo)
	}
	for k, v := range e.Headers {
		fmt.Printf("header %s=%s\n", k, v)
	}
	fmt.Printf("body: %s\n", e.Body)
}
