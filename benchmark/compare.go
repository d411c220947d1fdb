package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compare is the regression check between two result files of the suite:
// one row per workload and end-to-end metric, both medians, their ratio
// with its base, the bound, and a verdict.
//
//	ok          B is not worse than A by more than the bound
//	worse       it is
//	unresolved  either side's run-to-run spread is wider than the bound,
//	            so the runs cannot tell
//
// It refuses files taken under different conditions and exits non-zero on
// any "worse", any "unresolved", or any rise in fail_frac.

// setupFloorS: set-up is a handful of fsyncs; below this many seconds of
// absolute change a relative bound on it is noise.
const setupFloorS = 0.2

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return &r, nil
}

// sameConditions refuses result files whose load shape differs.
func sameConditions(a, b *result) error {
	ha, hb := a.Host, b.Host
	switch {
	case ha.NProc != hb.NProc:
		return fmt.Errorf("nproc differs: %d vs %d", ha.NProc, hb.NProc)
	case ha.GOMAXPROCS != hb.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d", ha.GOMAXPROCS, hb.GOMAXPROCS)
	case ha.Clerks != hb.Clerks:
		return fmt.Errorf("clerks differ: %d vs %d", ha.Clerks, hb.Clerks)
	case ha.Seconds != hb.Seconds:
		return fmt.Errorf("window differs: %gs vs %gs", ha.Seconds, hb.Seconds)
	case len(a.Workloads) != len(b.Workloads):
		return fmt.Errorf("workload sets differ")
	}
	for i := range a.Workloads {
		if a.Workloads[i].Name != b.Workloads[i].Name {
			return fmt.Errorf("workload sets differ: %s vs %s", a.Workloads[i].Name, b.Workloads[i].Name)
		}
	}
	return nil
}

// judge compares one metric's two sides against bound.
func judge(m metricSpec, bound float64, a, b *runStats) verdict {
	if m.Name == "setup_s" && b.Median-a.Median <= setupFloorS {
		return verdictOK
	}
	if a.Spread > bound || b.Spread > bound {
		return verdictUnresolved
	}
	worseBy := div(b.Median-a.Median, a.Median)
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	if worseBy <= bound {
		return verdictOK
	}
	return verdictWorse
}

// compareResults writes the table and returns how many rows block.
func compareResults(w io.Writer, a, b *result) int {
	bad := 0
	fmt.Fprintf(w, "%-16s %-15s %13s %13s %8s %6s  %s\n", "workload", "metric", "A (base)", "B", "B/A", "bound", "verdict")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		spec, _ := workloadByName(wa.Name) // a workload this binary does not know gets the declared bounds
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa == nil || sb == nil {
				fmt.Fprintf(w, "%-16s %-15s missing on one side\n", wa.Name, m.Name)
				bad++
				continue
			}
			bound := boundFor(spec, m)
			v := judge(m, bound, sa, sb)
			if v != verdictOK {
				bad++
			}
			fmt.Fprintf(w, "%-16s %-15s %13.6g %13.6g %8.3f %6.2f  %s", wa.Name, m.Name, sa.Median, sb.Median, div(sb.Median, sa.Median), bound, v)
			if v == verdictUnresolved {
				fmt.Fprintf(w, " (spread A %.3f, B %.3f)", sa.Spread, sb.Spread)
			}
			fmt.Fprintln(w)
		}
		v := verdictOK
		if wb.FailFrac > wa.FailFrac {
			v = verdictWorse
			bad++
		}
		fmt.Fprintf(w, "%-16s %-15s %13.6g %13.6g %8s %6s  %s\n", wa.Name, "fail_frac", wa.FailFrac, wb.FailFrac, "", "0", v)
	}
	return bad
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := loadResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := loadResult(args[1])
	if err == nil {
		err = sameConditions(a, b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	fmt.Printf("A %s (%s)  B %s (%s)  nproc %d  clerks %d  window %gs  runs %d/%d  fsync p50 %.0f/%.0f us\n",
		args[0], a.Host.Commit, args[1], b.Host.Commit, a.Host.NProc, a.Host.Clerks, a.Host.Seconds,
		a.Host.Runs, b.Host.Runs, a.Host.HostFsyncUS, b.Host.HostFsyncUS)
	if compareResults(os.Stdout, a, b) > 0 {
		return 1
	}
	return 0
}
