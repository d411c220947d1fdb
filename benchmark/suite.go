package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// The suite: every workload, each run in a fresh child process (a re-exec
// of this binary with the driver's flags) so that set-up time, peak RSS
// and GC state belong to that run alone, gathered into one result file.

type suiteCfg struct {
	base   runCfg
	traced bool
	runs   int
	out    string
}

const resultSchema = "rrq-benchmark/1"

// result is the one schema every number from this harness is recorded in.
type result struct {
	Schema    string                     `json:"schema"`
	Claim     *string                    `json:"claim"` // this harness measures; a change that claims a gain says so here
	Host      fingerprint                `json:"host"`
	Workloads []*workloadResult          `json:"workloads"`
	Derived   map[string]*float64        `json:"derived,omitempty"`
	Units     map[string]string          `json:"units"`
	Bounds    map[string]metricBoundJSON `json:"bounds"`
}

type metricBoundJSON struct {
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// fingerprint says what the numbers were taken on. Results whose nproc,
// GOMAXPROCS, clerks or seconds differ are not comparable, and compare
// refuses them.
type fingerprint struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Clerks      int     `json:"clerks"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Runs        int     `json:"runs"`
	ScratchFS   string  `json:"scratch_fs"`
	HostFsyncUS float64 `json:"host.fsync_us_p50"`
	Started     string  `json:"started"`
}

type workloadResult struct {
	Name      string               `json:"name"`
	WallS     float64              `json:"wall_s"` // all of this workload's runs, set-up and audit included
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	FailFrac  float64              `json:"fail_frac"`
	EndToEnd  map[string]*runStats `json:"end_to_end"`
	PerLayer  map[string]*float64  `json:"per_layer,omitempty"` // null: the program has no such counter
}

// runStats is one end-to-end metric over the workload's runs.
type runStats struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (Q3-Q1)/median; 0 with fewer than two runs
}

func newRunStats(v []float64) *runStats {
	s := &runStats{Values: v, Median: medianFloat(v)}
	if len(v) >= 2 {
		q1, q3 := quartiles(v)
		s.Spread = div(q3-q1, s.Median)
	}
	return s
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// child runs one workload in a fresh process and parses its last line.
func (s *suiteCfg) child(workload string, seed int64, trace bool, extra ...string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := append([]string{
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(s.base.seconds),
		"--trace", t, "-dir", s.base.dir,
	}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	os.Stdout.Write(out[:i+1]) // the child's human-readable part
	var rep report
	if err := json.Unmarshal(out[i+1:], &rep); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return &rep, nil
}

func runSuite(s *suiteCfg) error {
	if s.runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	if err := os.MkdirAll(s.base.dir, 0o755); err != nil {
		return err
	}
	hostUS, err := hostFsyncUS(s.base.dir, 200)
	if err != nil {
		return err
	}
	res := &result{
		Schema: resultSchema,
		Host: fingerprint{
			Commit: gitCommit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Clerks: s.base.clerks, Seed: s.base.seed,
			Seconds: s.base.seconds, Runs: s.runs, ScratchFS: fsType(s.base.dir), HostFsyncUS: hostUS,
			Started: time.Now().UTC().Format(time.RFC3339),
		},
		Derived: map[string]*float64{},
		Units:   map[string]string{},
		Bounds:  map[string]metricBoundJSON{},
	}
	for _, m := range endToEnd {
		res.Units[m.Name] = m.Unit
		res.Bounds[m.Name] = metricBoundJSON{m.Better, m.Bound}
	}
	for _, m := range perLayer {
		res.Units[m.Name] = m.Unit
	}

	byName := map[string]*workloadResult{}
	for _, w := range workloads {
		t0 := time.Now()
		wr := &workloadResult{Name: w.Name, Correct: true, EndToEnd: map[string]*runStats{}}
		values := map[string][]float64{}
		for run := 0; run < s.runs; run++ {
			// Every run of a set gets its own seed: the spread then covers
			// the inputs as well as the machine.
			rep, err := s.child(w.Name, s.base.seed+int64(run), false)
			if err != nil {
				return err
			}
			wr.Attempted, wr.Failed = wr.Attempted+rep.Attempted, wr.Failed+rep.Failed
			wr.Correct = wr.Correct && rep.Correct
			for name, v := range rep.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for name, v := range values {
			wr.EndToEnd[name] = newRunStats(v)
		}
		if s.traced {
			rep, err := s.child(w.Name, s.base.seed, true)
			if err != nil {
				return err
			}
			wr.Attempted, wr.Failed = wr.Attempted+rep.Attempted, wr.Failed+rep.Failed
			wr.Correct = wr.Correct && rep.Correct
			wr.PerLayer = map[string]*float64{}
			for name, v := range rep.Metrics {
				if programCounters[name] && v.Value == absentCounter {
					wr.PerLayer[name] = nil
					continue
				}
				x := v.Value
				wr.PerLayer[name] = &x
			}
		}
		wr.FailFrac = div(float64(wr.Failed), float64(wr.Attempted))
		wr.WallS = time.Since(t0).Seconds()
		res.Workloads = append(res.Workloads, wr)
		byName[w.Name] = wr
	}

	// What only two workloads together can say.
	tax := div(byName["rpc_durable"].EndToEnd["req_per_s"].Median, byName["rpc_sync_repl"].EndToEnd["req_per_s"].Median)
	res.Derived["replica.tax_ratio"] = &tax
	if s.traced {
		// The product's own tracing: rpc_nofsync is where its CPU cost has
		// nowhere to hide.
		rep, err := s.child("rpc_nofsync", s.base.seed, false, "-obs-trace")
		if err != nil {
			return err
		}
		over := 1 - div(rep.Metrics["req_per_s"].Value, byName["rpc_nofsync"].EndToEnd["req_per_s"].Median)
		res.Derived["obs.trace_overhead_frac"] = &over
	}

	fmt.Println()
	for _, wr := range res.Workloads {
		for _, m := range endToEnd {
			st := wr.EndToEnd[m.Name]
			fmt.Printf("%-16s %-16s %14.6g %-5s spread %.3f over %d runs\n", wr.Name, m.Name, st.Median, m.Unit, st.Spread, len(st.Values))
		}
		fmt.Printf("%-16s %-16s %14.6g frac\n", wr.Name, "fail_frac", wr.FailFrac)
	}
	for name, v := range res.Derived {
		fmt.Printf("%-16s %-16s %14.6g\n", "derived", name, *v)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(s.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("result written to", s.out)
	return nil
}
