package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMatchesSpec: BENCHMARK.json is spec.go as `benchmark spec`
// writes it, and the table keeps the driver's limits on names, units,
// bounds and the one-line whys.
func TestDeclaredMatchesSpec(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Error("BENCHMARK.json is not what `benchmark spec` prints; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q, bound %v outside (0, 0.25]", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is not declared")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != 0 {
			t.Errorf("%s: unit %q, bound %v (per-layer metrics have none)", m.Name, m.Unit, m.Bound)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, in a 200 ms NoFsync
// smoke mode and checks that it emits exactly the declared metric names
// and audits clean.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := &runCfg{workload: w.Name, seed: 7, seconds: 0.2, trace: trace, dir: t.TempDir(), clerks: 2, setups: 1, smoke: true}
			o, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			rep, err := buildReport(cfg, o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s trace=%t: failed %d of %d: %v", w.Name, trace, rep.Failed, rep.Attempted, o.notes)
			}
			var want []string
			if trace {
				for _, m := range d.PerLayer {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range d.EndToEnd {
					want = append(want, m.Name)
				}
			}
			var got []string
			for n := range rep.Metrics {
				got = append(got, n)
			}
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%t emits\n%v\nBENCHMARK.json declares\n%v", w.Name, trace, got, want)
			}
			if !trace {
				for n, v := range rep.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; they must never be 0", w.Name, n, v.Value)
					}
				}
			} else if w.Name == "backlog_recover" && rep.Metrics["wal.dropped_bytes"].Value <= 0 {
				t.Errorf("the mid-load crash dropped no bytes")
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 9, 100, 1001} {
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63n(1000)
		}
		s := sortedCopy(v[:n/2], v[n/2:])
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) || len(s) != n {
			t.Fatalf("sortedCopy broken at n=%d", n)
		}
		for _, p := range []float64{50, 90, 99, 100} {
			// Reference: the smallest value with at least p% of the sample at or below it.
			want := s[n-1]
			for _, x := range s {
				below := sort.Search(n, func(i int) bool { return s[i] > x })
				if float64(below) >= p/100*float64(n) {
					want = x
					break
				}
			}
			if got := percentile(s, p); got != want {
				t.Errorf("n=%d p%v = %d, want %d", n, p, got, want)
			}
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile is not 0")
	}
	if tailPercent(50000) != 99 || tailPercent(100) != 90 || tailPercent(15) != 50 {
		t.Errorf("tailPercent: %v %v %v", tailPercent(50000), tailPercent(100), tailPercent(15))
	}
}

// TestQuartiles checks against values from Python's
// statistics.quantiles(v, n=4), which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 40, 20})
	if q1 != 10 || q3 != 40 {
		t.Errorf("quartiles(10,20,40) = %v, %v; want 10, 40", q1, q3)
	}
}

// TestTimelineSums: for any raw cut points, including a handler that ran
// before the enqueue's acknowledgement reached the clerk, the segments are
// non-negative and sum exactly to the latency.
func TestTimelineSums(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := time.Now()
	overlaps := 0
	for i := 0; i < 1000; i++ {
		at := func(max int) time.Time { return base.Add(time.Duration(rng.Intn(max)) * time.Microsecond) }
		t0 := at(10)
		t1 := t0.Add(time.Duration(rng.Intn(5)) * time.Microsecond)
		t2 := t1.Add(time.Duration(100+rng.Intn(500)) * time.Microsecond)
		t3 := t1.Add(time.Duration(50+rng.Intn(700)) * time.Microsecond) // before or after the ack
		t4 := t3.Add(time.Duration(rng.Intn(20)) * time.Microsecond)
		t5 := t2.Add(time.Duration(200+rng.Intn(600)) * time.Microsecond)
		if t3.Before(t2) {
			overlaps++
		}
		raw := [6]time.Time{t0, t1, t2, t3, t4, t5}
		if i%50 == 0 {
			raw[3], raw[4] = time.Time{}, time.Time{} // a request whose handler stamps were never seen
		}
		cut := timeline(raw)
		var sum int64
		for k := 0; k < 5; k++ {
			seg := cut[k+1] - cut[k]
			if seg < 0 {
				t.Fatalf("request %d: segment %d is negative: %v", i, k, cut)
			}
			sum += seg
		}
		if want := int64(t5.Sub(t0)); sum != want || cut[5] != want {
			t.Fatalf("request %d: segments sum to %d, latency is %d", i, sum, want)
		}
	}
	if overlaps == 0 {
		t.Fatal("no synthetic request had the handler-before-ack overlap")
	}
}

func TestAuditFlagsInjectedFaults(t *testing.T) {
	clean := func() *ledger {
		l := newLedger(2)
		for c := 0; c < 2; c++ {
			for seq := uint64(0); seq < 100; seq++ {
				l.sent(c, seq)
				l.executed(rid(c, seq))
				l.replied(rid(c, seq))
			}
			l.sent(c, 100) // in flight when the run stopped: legal
		}
		return l
	}
	if v := clean().verifyRequests(); v.n != 0 {
		t.Fatalf("clean ledger has violations: %v", v.msgs)
	}
	dup := clean()
	dup.executed(rid(1, 40))
	if v := dup.verifyRequests(); v.n != 1 || !strings.Contains(v.msgs[0], "c1.40 executed 2 times") {
		t.Errorf("duplicate execution: %d %v", v.n, v.msgs)
	}
	lost := newLedger(1)
	for seq := uint64(0); seq < 10; seq++ {
		lost.sent(0, seq)
		lost.executed(rid(0, seq))
		if seq != 4 {
			lost.replied(rid(0, seq))
		}
	}
	if v := lost.verifyRequests(); v.n != 1 || !strings.Contains(v.msgs[0], "c0.4 sent but never answered") {
		t.Errorf("lost reply: %d %v", v.n, v.msgs)
	}
	foreign := clean()
	foreign.executed("nobody.7")
	if v := foreign.verifyRequests(); v.n != 1 {
		t.Errorf("foreign rid: %d %v", v.n, v.msgs)
	}

	// The backlog contract: acked means present exactly once.
	b := newLedger(1)
	b.sent(0, 9)
	for seq := uint64(0); seq < 10; seq++ {
		switch {
		case seq < 5:
			b.executed(rid(0, seq))
			b.replied(rid(0, seq))
		case seq != 7:
			b.stillQueued(rid(0, seq))
		}
	}
	b.stillQueued(rid(0, 2)) // answered and still queued
	v := b.verifyBacklog()
	if v.n != 2 || !strings.Contains(strings.Join(v.msgs, ";"), "c0.7 acked but lost") || !strings.Contains(strings.Join(v.msgs, ";"), "c0.2 present 2 times") {
		t.Errorf("backlog audit: %d %v", v.n, v.msgs)
	}
}

func syntheticResult(rate float64, spread float64) *result {
	r := &result{Schema: resultSchema, Host: fingerprint{NProc: 2, GOMAXPROCS: 2, Clerks: 2, Seconds: 10, Runs: 5}}
	for _, w := range workloads {
		wr := &workloadResult{Name: w.Name, Correct: true, Attempted: 1000, EndToEnd: map[string]*runStats{}}
		for _, m := range endToEnd {
			x := 100.0
			if m.Name == "req_per_s" {
				x = rate
			}
			v := []float64{x * (1 - spread), x * (1 - spread/2), x, x * (1 + spread/2), x * (1 + spread)}
			wr.EndToEnd[m.Name] = newRunStats(v)
		}
		r.Workloads = append(r.Workloads, wr)
	}
	return r
}

func TestCompare(t *testing.T) {
	base := syntheticResult(1000, 0.01)
	deviceFree := 0
	for _, w := range workloads {
		if w.DeviceFree {
			deviceFree++
		}
	}
	var out bytes.Buffer
	if bad := compareResults(&out, base, syntheticResult(950, 0.01)); bad != 0 {
		t.Errorf("a 5%% drop must pass, %d rows blocked:\n%s", bad, out.String())
	}
	out.Reset()
	if bad := compareResults(&out, base, syntheticResult(850, 0.01)); bad != deviceFree || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 15%% drop must be flagged on the %d device-free workloads, %d rows blocked:\n%s", deviceFree, bad, out.String())
	}
	out.Reset()
	if bad := compareResults(&out, base, syntheticResult(700, 0.01)); bad != len(workloads) {
		t.Errorf("a 30%% drop must be flagged on every workload, %d rows blocked:\n%s", bad, out.String())
	}
	out.Reset()
	if bad := compareResults(&out, base, syntheticResult(1000, 0.4)); bad == 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must be unresolved:\n%s", out.String())
	}
	worse := syntheticResult(1000, 0.01)
	worse.Workloads[0].FailFrac = 0.001
	out.Reset()
	if bad := compareResults(&out, base, worse); bad != 1 {
		t.Errorf("a rise in fail_frac must block, got %d:\n%s", bad, out.String())
	}
	other := syntheticResult(1000, 0.01)
	other.Host.NProc = 8
	if err := sameConditions(base, other); err == nil {
		t.Error("results from a different nproc must be refused")
	}
	// A set-up twice as slow, but by less than the absolute floor, is noise;
	// one slower by more than the floor is not.
	quick, slow, slower := syntheticResult(1000, 0.01), syntheticResult(1000, 0.01), syntheticResult(1000, 0.01)
	for i := range quick.Workloads {
		quick.Workloads[i].EndToEnd["setup_s"] = newRunStats([]float64{0.01})
		slow.Workloads[i].EndToEnd["setup_s"] = newRunStats([]float64{0.02})
		slower.Workloads[i].EndToEnd["setup_s"] = newRunStats([]float64{0.5})
	}
	out.Reset()
	if bad := compareResults(&out, quick, slow); bad != 0 {
		t.Errorf("setup_s within the absolute floor must pass:\n%s", out.String())
	}
	if bad := compareResults(&out, quick, slower); bad != len(workloads) {
		t.Errorf("setup_s beyond floor and bound must be flagged:\n%s", out.String())
	}
}
