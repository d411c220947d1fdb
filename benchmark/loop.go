package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The closed loop. Each worker is one sequential client: it issues its
// next operation only when the previous one has completed — the paper's
// client is a sequential program with one outstanding request — so a
// slower system is offered less load, and throughput and latency are two
// views of the same number of clients.

// opFn performs one operation for worker w. It returns the operation's
// latency in ns, or a negative latency when this operation was not
// sampled.
type opFn func(w int) (latNS int64, err error)

// phase is one stretch of the run. Operations that straddle a phase
// boundary belong to neither side.
type phase struct {
	dur    time.Duration
	record bool   // keep counts and samples (warm-up does not)
	begin  func() // runs on the coordinator as the phase starts
	end    func() // and as it ends
}

type phaseResult struct {
	wall    time.Duration
	cpu     time.Duration
	ops     int64 // completed without error
	errs    int64
	samples [][]int64 // per worker
	slices  []slice   // the phase cut into equal stretches, a multiple of four of them
	mem     runtime.MemStats
	memEnd  runtime.MemStats
}

// slice is one stretch of a phase.
type slice struct {
	wall, cpu time.Duration
	ops       int64
}

// sliceLen is how long a slice aims to be: long enough to hold hundreds of
// requests of the slowest workload, short enough that a stall of the
// (shared, virtual) disk or a neighbour's burst lands in a few slices and
// leaves the median slice alone.
const sliceLen = 500 * time.Millisecond

func (r *phaseResult) rate() float64 { return div(float64(r.ops), r.wall.Seconds()) }

// sliceMedian is the median over the slices of f; with no slices (a phase
// that was not driven by runPhases) it is f of the whole phase.
func (r *phaseResult) sliceMedian(f func(slice) float64) float64 {
	if len(r.slices) == 0 {
		return f(slice{r.wall, r.cpu, r.ops})
	}
	v := make([]float64, len(r.slices))
	for i, s := range r.slices {
		v[i] = f(s)
	}
	return medianFloat(v)
}

func sliceRate(s slice) float64 { return div(float64(s.ops), s.wall.Seconds()) }

func sliceCPUms(s slice) float64 { return div(s.cpu.Seconds()*1e3, float64(s.ops)) }

// quarterRates are the rates of the four quarters of the phase.
func (r *phaseResult) quarterRates() (q [4]float64) {
	n := len(r.slices) / 4
	for i := range q {
		var sum slice
		for _, s := range r.slices[i*n : (i+1)*n] {
			sum.wall, sum.ops = sum.wall+s.wall, sum.ops+s.ops
		}
		q[i] = sliceRate(sum)
	}
	return q
}

// sliceSpread is (max-min)/median of the four quarter rates: a run whose
// quarters disagree was disturbed, whatever its mean says.
func (r *phaseResult) sliceSpread() float64 {
	q := r.quarterRates()
	lo, hi := q[0], q[0]
	for _, x := range q {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return div(hi-lo, medianFloat(q[:]))
}

type workerCount struct {
	ops  atomic.Int64
	errs atomic.Int64
	_    [48]byte // keep workers' counters on separate cache lines
}

const phaseDone = -1

// runPhases drives workers closed-loop workers through phases and returns
// one result per phase. stop, when non-nil, is called after the last
// phase so an op blocked on a peer (a consumer on an empty queue) can be
// released.
func runPhases(workers int, phases []phase, op opFn, stop func()) []phaseResult {
	var cur atomic.Int64
	counts := make([]workerCount, workers)
	results := make([]phaseResult, len(phases))
	for i := range results {
		results[i].samples = make([][]int64, workers)
	}
	total := func() (ops, errs int64) {
		for i := range counts {
			ops += counts[i].ops.Load()
			errs += counts[i].errs.Load()
		}
		return
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				p := cur.Load()
				if p == phaseDone {
					return
				}
				lat, err := op(w)
				if cur.Load() != p || !phases[p].record {
					continue
				}
				if err != nil {
					counts[w].errs.Add(1)
					continue
				}
				counts[w].ops.Add(1)
				if lat >= 0 {
					results[p].samples[w] = append(results[p].samples[w], lat)
				}
			}
		}(w)
	}

	for i, ph := range phases {
		if ph.begin != nil {
			ph.begin()
		}
		r := &results[i]
		if ph.record {
			runtime.ReadMemStats(&r.mem)
		}
		cur.Store(int64(i))
		ops0, errs0 := total()
		cpu0, t0 := cpuTime(), time.Now()
		prev, prevCPU, prevT := ops0, cpu0, t0
		n := 4 * int((ph.dur+4*sliceLen-1)/(4*sliceLen))
		for q := 0; q < n; q++ {
			time.Sleep(time.Until(t0.Add(ph.dur * time.Duration(q+1) / time.Duration(n))))
			now, cpu := time.Now(), cpuTime()
			ops, _ := total()
			r.slices = append(r.slices, slice{now.Sub(prevT), cpu - prevCPU, ops - prev})
			prev, prevCPU, prevT = ops, cpu, now
		}
		r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
		ops1, errs1 := total()
		r.ops, r.errs = ops1-ops0, errs1-errs0
		if ph.end != nil {
			ph.end()
		}
		if ph.record {
			runtime.ReadMemStats(&r.memEnd)
		}
	}
	cur.Store(phaseDone)
	if stop != nil {
		stop()
	}
	wg.Wait()
	return results
}
