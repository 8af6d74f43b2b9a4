package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	hbo "repro"
	"repro/internal/stats"
)

// nativeLocks pins the fifteen algorithms by name: a lock added to the
// library later does not silently change the geometric means.
var nativeLocks = []hbo.Algorithm{
	hbo.TATAS, hbo.TATASExp, hbo.MCS, hbo.CLH, hbo.RH, hbo.HBO, hbo.HBOGT, hbo.HBOGTSD,
	hbo.Ticket, hbo.Anderson, hbo.Reactive, hbo.HBOHier, hbo.Cohort, hbo.CNA, hbo.HMCST,
}

// fifo marks the locks that hand over in arrival order. With as many
// spinning goroutines as CPUs their saturated handoff rate is set by
// the host scheduler (a descheduled successor stalls the whole queue)
// and differs twofold between two processes on the same commit, so the
// end-to-end handoff rate leaves them out; the traced run reports every
// lock's, and the light-contention job behind wall_s includes them.
var fifo = map[hbo.Algorithm]bool{
	hbo.MCS: true, hbo.CLH: true, hbo.Ticket: true, hbo.Anderson: true,
	hbo.Cohort: true, hbo.CNA: true, hbo.HMCST: true,
}

// nativeRig is one runtime with the pinned locks and W registered
// threads on alternating logical nodes, as a library user sets it up.
type nativeRig struct {
	rt      *hbo.Runtime
	locks   []hbo.Lock
	threads []*hbo.Thread
}

func newNativeRig(w int) *nativeRig {
	r := &nativeRig{rt: hbo.NewRuntime(2, 64)}
	for _, a := range nativeLocks {
		r.locks = append(r.locks, hbo.NewLock(a, r.rt))
	}
	for i := 0; i < w; i++ {
		r.threads = append(r.threads, r.rt.RegisterThread(i%2))
	}
	return r
}

// pairs times n uncontended acquire-release pairs and returns ns per
// pair.
func pairs(l hbo.Lock, t *hbo.Thread, n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		l.Acquire(t)
		l.Release(t)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// handoffs has every thread loop {acquire; counter++; release} for d,
// each stopping by its own clock so that nobody has to be woken to end
// the slice, and returns the elapsed seconds, the operations the
// threads counted and the counter, which must be equal: a lost update
// is a broken lock.
func handoffs(l hbo.Lock, threads []*hbo.Thread, d time.Duration) (secs float64, ops, counter int) {
	var wg sync.WaitGroup
	startGate := make(chan struct{})
	done := make([]int, len(threads))
	for ti, t := range threads {
		wg.Add(1)
		go func(ti int, t *hbo.Thread) {
			defer wg.Done()
			<-startGate
			start := time.Now()
			n := 0
			for time.Since(start) < d {
				for k := 0; k < 256; k++ {
					l.Acquire(t)
					counter++
					l.Release(t)
				}
				n += 256
			}
			done[ti] = n
		}(ti, t)
	}
	start := time.Now()
	close(startGate)
	wg.Wait()
	secs = time.Since(start).Seconds()
	for _, n := range done {
		ops += n
	}
	return secs, ops, counter
}

// appJob is the paper's new microbenchmark run natively: every thread
// does n times {acquire; bump critical shared words; release; private
// work of a similar, partly random size}. It returns the elapsed
// seconds and the shared words' sum, which must be n × threads ×
// critical.
func appJob(l hbo.Lock, threads []*hbo.Thread, n int, seed uint64) (secs float64, total int) {
	const private = 48
	var shared [appCritical]int
	var wg sync.WaitGroup
	startGate := make(chan struct{})
	for ti, t := range threads {
		wg.Add(1)
		go func(ti int, t *hbo.Thread) {
			defer wg.Done()
			x := seed*2654435761 + uint64(ti)*977 + 1
			sink := uint64(0)
			<-startGate
			for i := 0; i < n; i++ {
				l.Acquire(t)
				for j := range shared {
					shared[j]++
				}
				l.Release(t)
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				for k := uint64(0); k < private+x%private; k++ {
					sink += k ^ x
				}
			}
			sinks[ti] = sink
		}(ti, t)
	}
	start := time.Now()
	close(startGate)
	wg.Wait()
	secs = time.Since(start).Seconds()
	for _, v := range shared {
		total += v
	}
	return secs, total
}

// appCritical is how many shared words appJob's critical section bumps.
const appCritical = 16

// sinks keeps appJob's private work from being optimised away.
var sinks [8]uint64

// runNativeLocks is the library user's path and Table 1's native
// analogue. The lockspec.Env indirection and the obs probes sit on this
// path and nowhere else measurable.
func runNativeLocks(e *env, o *outcome) error {
	pairN, handN, slice := 100_000, 100_000, 8*time.Millisecond
	if e.smoke {
		pairN, handN, slice = 2_000, 500, time.Millisecond
	}

	var rig *nativeRig
	var setups []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		rig = newNativeRig(e.w)
		for _, l := range rig.locks {
			pairs(l, rig.threads[0], pairN)
			appJob(l, rig.threads, handN/4, e.seed)
			handoffs(l, rig.threads, slice)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.set("setup_s", "s", setups...)

	// latency_us: one goroutine, nobody else wants the lock.
	unc := make([][]float64, len(rig.locks))
	deadline := time.Now().Add(e.dur(0.2))
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		for i, l := range rig.locks {
			unc[i] = append(unc[i], pairs(l, rig.threads[0], pairN))
			o.Attempted += int64(pairN)
		}
	}

	var lost error
	tally := func(i, got, want int) {
		o.Attempted += int64(want)
		if got != want {
			lost = fmt.Errorf("%s: %d after %d increments", nativeLocks[i], got, want)
			o.Failed += int64(want - got)
		}
	}

	// wall_s: the fixed application-like job, light contention.
	app := make([][]float64, len(rig.locks))
	passes(e.dur(0.35), func() float64 {
		start := time.Now()
		for i, l := range rig.locks {
			secs, total := appJob(l, rig.threads, handN, e.seed)
			tally(i, total, handN*len(rig.threads)*appCritical)
			app[i] = append(app[i], secs)
		}
		return time.Since(start).Seconds()
	})

	// ops_per_s: W goroutines hand the lock straight back and forth.
	con := make([][]float64, len(rig.locks))
	passes(e.dur(0.4), func() float64 {
		start := time.Now()
		for i, l := range rig.locks {
			if fifo[nativeLocks[i]] {
				continue
			}
			secs, ops, counter := handoffs(l, rig.threads, slice)
			tally(i, counter, ops)
			con[i] = append(con[i], float64(ops)/secs)
		}
		return time.Since(start).Seconds()
	})

	var uncMed, rates []float64
	handoffSlices := 0
	for i := range rig.locks {
		uncMed = append(uncMed, stats.Median(unc[i]))
		rate := math.NaN()
		if !fifo[nativeLocks[i]] {
			rate = stats.Median(con[i])
			rates = append(rates, rate)
			handoffSlices = len(con[i])
		}
		o.note("%-10s uncontended %6.1f ns   job %.4f s   handoff %.3g ops/s", nativeLocks[i], uncMed[i], stats.Median(app[i]), rate)
	}
	o.Metrics["latency_us"] = metric{Value: geomean(uncMed) / 1e3, Unit: "us", N: len(unc[0])}
	o.Metrics["wall_s"] = sumOfMedians("s", app)
	o.Metrics["ops_per_s"] = metric{Value: geomean(rates), Unit: "1/s", N: handoffSlices}
	o.verify("no lost update on any lock", lost)
	o.set("peak_rss_mb", "MB", peakRSSMB())
	return nil
}
