// Command benchmark is the one harness for this repository's performance
// numbers: it drives the product (rrq.StartNode, rrq.NewClerk,
// rrq.NewServer, rrq.StartStandby) through one recoverable request end to
// end and layer by layer, audits exactly-once on every run, and reports in
// one schema. See README.md, and BENCHMARK.json at the repository root.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//	benchmark [-traced] [-runs R] [-out FILE]                  every workload, each in a fresh child
//	benchmark compare A.json B.json                            the regression check between two result files
//	benchmark spec                                             BENCHMARK.json, from spec.go
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart is as early as the program can look at the clock; setup_s
// counts from here.
var processStart = time.Now()

// value is one reported metric in the driver's schema.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func defaultClerks() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) == 2 && os.Args[1] == "spec" {
		data, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		return
	}
	var cfg runCfg
	var s suiteCfg
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in this process and print its result line")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, decorators absent; 1: per-layer metrics from the traced run")
	flag.StringVar(&cfg.dir, "dir", os.TempDir(), "scratch directory (never inside the repository; always removed)")
	flag.BoolVar(&cfg.obsTrace, "obs-trace", false, "turn the product's own tracing on (NodeConfig.Trace and the clerk tracer)")
	flag.StringVar(&cfg.spans, "spans", "", "traced run: also write every request's timeline to this file, one JSON object per line")
	flag.BoolVar(&s.traced, "traced", false, "suite: run every workload traced as well")
	flag.IntVar(&s.runs, "runs", 1, "suite: runs per workload (5 or more give compare a spread)")
	flag.StringVar(&s.out, "out", "benchmark-result.json", "suite: result file")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.clerks = defaultClerks()

	if cfg.workload == "" {
		s.base = cfg
		if err := runSuite(&s); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := workloadByName(cfg.workload); !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if err := runOne(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's contract: one workload, in this process, result
// as the last line of standard output.
func runOne(cfg *runCfg) error {
	cfg.setups = 21
	if cfg.workload == "backlog_drain" {
		cfg.setups = 3 // its set-up loads the backlog: seconds, not milliseconds
	}
	base := cfg.dir
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(base, "rrq-benchmark-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	cfg.dir = scratch

	fmt.Printf("workload %s  seed %d  seconds %g  trace %t  clerks %d  nproc %d  GOMAXPROCS %d  scratch %s (%s)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.clerks, runtime.NumCPU(), runtime.GOMAXPROCS(0), base, fsType(scratch))
	o, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	rep, err := buildReport(cfg, o)
	if err != nil {
		return err
	}
	printReport(cfg, o, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// buildReport checks the run emitted exactly the declared metrics, as
// finite numbers, and puts them in the driver's schema.
func buildReport(cfg *runCfg, o *outcome) (*report, error) {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	rep := &report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]value, len(specs))}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted nothing", cfg.workload)
	}
	for _, s := range specs {
		v, ok := o.metrics[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s missing or not finite", cfg.workload, s.Name)
		}
		rep.Metrics[s.Name] = value{v, s.Unit}
	}
	if len(o.metrics) != len(specs) {
		for name := range o.metrics {
			if _, ok := rep.Metrics[name]; !ok {
				return nil, fmt.Errorf("%s: metric %s emitted but not declared", cfg.workload, name)
			}
		}
	}
	return rep, nil
}

func printReport(cfg *runCfg, o *outcome, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	for _, s := range o.info {
		fmt.Println("  #", s)
	}
	if cfg.trace {
		printBudget(cfg, o.metrics)
	}
	fmt.Printf("  %-32s %14.6g frac (%d failed of %d attempted)\n", "fail_frac",
		div(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
	for _, s := range o.notes {
		fmt.Println("  ! ", s)
	}
}

// printBudget prints, for the rpc workloads, where a traced request's
// time went: (a) the five timeline segments, which sum to the mean
// latency by construction, and (b) a resource budget built from counts
// and unit costs, whose remainder is stated, not hidden.
func printBudget(cfg *runCfg, m map[string]float64) {
	lat := m["core.timeline_lat_us"]
	if lat == 0 {
		return
	}
	fmt.Printf("  timeline of a mean request (%s):\n", cfg.workload)
	var sum float64
	for _, name := range timelineSegments {
		fmt.Printf("    %-28s %10.1f us  %5.1f%%\n", name, m[name], 100*m[name]/lat)
		sum += m[name]
	}
	fmt.Printf("    %-28s %10.1f us  (mean latency %.1f us)\n", "sum", sum, lat)
	dev := m["wal.fsyncs_per_req"] * m["wal.fsync_us_p50"]
	repl := m["replica.exchanges_per_req"] * m["replica.exchange_us_p50"]
	net := m["rpc.calls_per_req"] * m["rpc.roundtrip_us"]
	fmt.Printf("  resource budget: lat %.1f us = wal %.2f fsyncs x %.1f us (%.1f) + replica %.2f exchanges x %.1f us (%.1f) + rpc %.2f calls x %.1f us (%.1f) + other_us %.1f\n",
		lat, m["wal.fsyncs_per_req"], m["wal.fsync_us_p50"], dev,
		m["replica.exchanges_per_req"], m["replica.exchange_us_p50"], repl,
		m["rpc.calls_per_req"], m["rpc.roundtrip_us"], net, lat-dev-repl-net)
}

// writeSpans writes the traced run's request timelines, if asked to.
func writeSpans(path string, tr *tracer) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		if err := enc.Encode(map[string]any{"rid": s.rid, "cut_ns": s.cut, "segments": timelineSegments}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
