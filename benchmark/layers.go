package main

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	hbo "repro"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/microbench"
	"repro/internal/paper"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The traced run walks every layer of both paths and takes each
// layer's number by timing calls into its public functions from here:
// micro-loops for nanosecond-scale calls, spans for microsecond-scale
// ones. The driver wants every per-layer metric from every traced run,
// so the walk is the same whichever workload was named; README.md says
// which end-to-end metric, on which workload, each number should move.

// ladder carries the traced run's state.
type ladder struct {
	e   *env
	o   *outcome
	dir string
	// scale stretches loop lengths with the run's measuring time; 1 at
	// the 15 s the sizes were chosen for.
	scale float64
}

func (l *ladder) n(base int) int { return max(1, int(float64(base)*l.scale)) }

// loopNS times fn(n) three times and returns the median ns per item.
func loopNS(n int, fn func(n int)) float64 {
	var xs []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		fn(n)
		xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return stats.Median(xs)
}

// path names the span file of one workload.
func (l *ladder) path(workload string) string {
	return filepath.Join(l.dir, workload+".trace.json")
}

func runTraced(e *env, o *outcome, name, dir string) error {
	l := &ladder{e: e, o: o, dir: dir, scale: e.seconds / 15}
	if e.smoke {
		l.scale = 0.02
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	o.note("the traced run measures every layer whichever workload is named (here %s); span files are in %s", name, dir)
	l.simLayer()
	l.machineLayer()
	l.microbenchLayer()
	if err := l.experimentsLayer(); err != nil {
		return err
	}
	l.clusterLayer()
	if err := l.coreLayer(); err != nil {
		return err
	}
	if err := l.serviceLayers(); err != nil {
		return err
	}
	return nil
}

// simLayer: the engine's three costs and the parallel engine's event
// rate.
func (l *ladder) simLayer() {
	// One Process sleeping in place: the self-resume fast path.
	l.o.set("sim.sleep_fast_ns", "ns", loopNS(l.n(2_000_000), func(n int) {
		eng := sim.NewEngine()
		eng.Spawn(0, func(p *sim.Process) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		eng.Run()
		eng.Shutdown()
	}))
	// Two Processes alternating: every Sleep hands over to the other.
	l.o.set("sim.switch_ns", "ns", loopNS(l.n(200_000), func(n int) {
		eng := sim.NewEngine()
		for id := 0; id < 2; id++ {
			eng.Spawn(id, func(p *sim.Process) {
				for i := 0; i < n/2; i++ {
					p.Sleep(2)
				}
			})
		}
		eng.Run()
		eng.Shutdown()
	}))
	// Callback events only: heap push, pop, call.
	l.o.set("sim.schedule_ns", "ns", loopNS(l.n(1_000_000), func(n int) {
		eng := sim.NewEngine()
		fired := 0
		for i := 0; i < n; i++ {
			eng.Schedule(sim.Time(i%1024), func() { fired++ })
		}
		eng.Run()
		eng.Shutdown()
	}))
	horizon := sim.Time(l.n(400_000))
	w1 := phold(64, 1, 4, 100, horizon, l.e.seed)
	wmax := phold(64, l.e.w, 4, 100, horizon, l.e.seed)
	l.o.set("sim.pdes_events_per_s_w1", "1/s", w1)
	l.o.set("sim.pdes_events_per_s_wmax", "1/s", wmax)
}

// phold is the classic PDES kernel: jobs hop between partitions, 40 %
// of hops crossing, and it returns events per host second.
func phold(parts, workers, jobs int, lookahead, horizon sim.Time, seed uint64) float64 {
	d := sim.NewParEngine(parts, workers, lookahead)
	d.SetLimit(horizon)
	rngs := make([]*sim.RNG, parts)
	counts := make([]int64, parts)
	var step func(p *sim.Part)
	step = func(p *sim.Part) {
		r := rngs[p.ID()]
		counts[p.ID()]++
		if r.Intn(100) < 40 {
			dst := r.Intn(parts - 1)
			if dst >= p.ID() {
				dst++
			}
			target := p.Engine().Part(dst)
			p.Send(dst, lookahead+r.Timen(lookahead), func() { step(target) })
		} else {
			p.Schedule(1+r.Timen(lookahead), func() { step(p) })
		}
	}
	for i := 0; i < parts; i++ {
		rngs[i] = sim.NewRNG(sim.PartitionSeed(seed, i))
		p := d.Part(i)
		for j := 0; j < jobs; j++ {
			p.Schedule(rngs[i].Timen(lookahead), func() { step(p) })
		}
	}
	start := time.Now()
	d.Run()
	secs := time.Since(start).Seconds()
	d.Shutdown()
	var total int64
	for _, c := range counts {
		total += c
	}
	return float64(total) / secs
}

// machineLayer: what one simulated memory access costs the host,
// by where the line was.
func (l *ladder) machineLayer() {
	access := func(owner int, cas bool) float64 {
		return loopNS(l.n(300_000), func(n int) {
			m := machine.New(machine.WildFire())
			a := m.Alloc(0, 1)
			m.Spawn(0, func(p *machine.Proc) {
				p.Store(a, 1)
				for i := 0; i < n; i++ {
					if owner != 0 {
						// Hand the line to another CPU first, so
						// every access below is a miss.
						m.SeedOwner(a, owner, uint64(i))
					}
					if cas {
						p.CAS(a, uint64(i), uint64(i)+1)
					} else {
						p.Load(a)
					}
				}
			})
			m.Run()
		})
	}
	cfg := machine.WildFire()
	l.o.set("machine.hit_ns", "ns", access(0, false))
	l.o.set("machine.local_miss_ns", "ns", access(1, false))
	l.o.set("machine.remote_miss_ns", "ns", access(cfg.CPUsPerNode, false))
	l.o.set("machine.cas_remote_ns", "ns", access(cfg.CPUsPerNode, true))
}

// microbenchLayer: host cost and model check of the 28-thread cell at
// the Table 2 operating point, per lock.
func (l *ladder) microbenchLayer() {
	iters := 10
	if l.e.smoke {
		iters = 2
	}
	var host time.Duration
	var acqs int
	var txns uint64
	for _, name := range simLocks {
		res, d, guard := contendedCell(name, l.e.seed, iters)
		host += d
		acqs += guard.acquires
		txns += res.Traffic.TotalLocal() + res.Traffic.Global
		l.o.Attempted++
		l.o.set("microbench.cell_ns_per_acq."+name, "ns", float64(d.Nanoseconds())/float64(guard.acquires))
		l.o.set("microbench.model_ratio."+name, "ratio", modelRatio(name, res, guard, l.e.seed))
	}
	l.o.set("microbench.acq_per_host_s", "1/s", float64(acqs)/host.Seconds())
	l.o.set("machine.txn_per_host_s", "1/s", float64(txns)/host.Seconds())
}

// modelRatio is simulated throughput over the closed-form prediction of
// Aksenov, Alistarh & Kuznetsov for a lock-guarded loop: with critical
// section C, private work P, N threads and handoff H, throughput is
// min(N / (C + P + H), 1 / (C + H)). C is the mean simulated hold time
// the cell measured, P the cell's private work, H the uncontested
// handoff latency (Table 1) weighted by the share of handoffs that
// crossed nodes. Simulated time only, so it repeats exactly per seed; a
// ratio far from 1 means the model or the lock is wrong. Backoff locks
// sit below 1 by the time they sleep past a release.
func modelRatio(lock string, res microbench.NewBenchResult, guard *exclusionLock, seed uint64) float64 {
	cfg := machine.WildFire()
	cfg.Seed = seed
	same := float64(microbench.Uncontested(cfg, lock, microbench.SameNode, 3))
	remote := float64(microbench.Uncontested(cfg, lock, microbench.RemoteNode, 3))
	h := res.HandoffRatio*remote + (1-res.HandoffRatio)*same
	c := float64(guard.held) / float64(guard.acquires)
	p := 8.0 * cellPrivate * 1.5 // static plus uniform [0, private) at 8 ns an element
	n := float64(res.Threads)
	predicted := math.Min(n/(c+p+h), 1/(c+h))
	measured := float64(guard.acquires) / float64(res.TotalTime)
	return measured / predicted
}

// tableCells parses a rendered table back into rows of cells.
func tableCells(t *stats.Table) [][]string {
	rows, err := csv.NewReader(strings.NewReader(t.CSV())).ReadAll()
	if err != nil || len(rows) < 2 {
		return nil
	}
	return rows[1:]
}

// leadingFloat reads the number a cell starts with ("150 ns" → 150).
func leadingFloat(s string) (float64, bool) {
	f := strings.Fields(s)
	if len(f) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(f[0], 64)
	return v, err == nil
}

// paperError is the mean absolute relative error of measured against
// published over Table 1 (24 cells) and Table 2 (16 cells), in percent,
// at full resolution. Simulated quantities only: it repeats exactly.
func paperError() (float64, error) {
	full := experiments.Options{Seeds: 1, Scale: 100, Parallel: 1}
	var errs []float64
	collect := func(id string, want func(lock string) []float64) error {
		ex, _ := experiments.ByID(id)
		rows := tableCells(ex.Run(full)[0])
		if len(rows) != len(paper.LockOrder) {
			return fmt.Errorf("%s: %d rows, want %d", id, len(rows), len(paper.LockOrder))
		}
		for _, row := range rows {
			ref := want(row[0])
			if len(ref) != len(row)-1 {
				return fmt.Errorf("%s: row %q has %d cells, want %d", id, row[0], len(row)-1, len(ref))
			}
			for i, cell := range row[1:] {
				got, ok := leadingFloat(cell)
				if !ok {
					return fmt.Errorf("%s: cell %q of %s is not a number", id, cell, row[0])
				}
				errs = append(errs, math.Abs(got-ref[i])/ref[i]*100)
			}
		}
		return nil
	}
	if err := collect("table1", func(k string) []float64 { v := paper.Table1[k]; return v[:] }); err != nil {
		return 0, err
	}
	if err := collect("table2", func(k string) []float64 { v := paper.Table2[k]; return v[:] }); err != nil {
		return 0, err
	}
	return sum(errs) / float64(len(errs)), nil
}

// experimentsLayer: where the suite's time goes, the fan-out pool, the
// error against the paper, and what the spans cost.
func (l *ladder) experimentsLayer() error {
	tr := newTracer()
	opts := paperOptions()
	run := func(id string, o experiments.Options) float64 {
		if l.e.smoke {
			par := o.Parallel
			o, _ = smokeOptions(id)
			o.Parallel = par
		}
		ex, _ := experiments.ByID(id)
		start := time.Now()
		tr.time("experiments.Run "+id, func() { ex.Run(o) })
		l.o.Attempted++
		return time.Since(start).Seconds()
	}
	wall := map[string]float64{}
	for _, id := range paperIDs {
		wall[id] = run(id, opts)
		l.o.set("experiments.wall_s."+id, "s", wall[id])
	}

	// par: the same two experiments through the worker pool at width W.
	// The suite runs at Parallel 1, so this moves no end-to-end metric
	// here; it is the baseline for the first host with cores to spare.
	fan := []string{"table5", "fig6"}
	wide := opts
	wide.Parallel = l.e.w
	seq, par := 0.0, 0.0
	for _, id := range fan {
		seq += wall[id]
		par += run(id, wide)
	}
	l.o.set("par.fanout_speedup", "ratio", seq/par)

	perr, err := paperError()
	if err != nil {
		return err
	}
	l.o.set("paper_err_pct", "%", perr)

	// The spans here wrap calls that run for milliseconds to seconds, so
	// their cost is the noise between two timings of the same call.
	probe := []string{"table3", "fig7"}
	plain, traced := 0.0, 0.0
	for _, id := range probe {
		ex, _ := experiments.ByID(id)
		start := time.Now()
		ex.Run(opts)
		plain += time.Since(start).Seconds()
		traced += run(id, opts)
	}
	l.o.set("trace.overhead_pct.sim-paper", "%", (traced-plain)/plain*100)
	return tr.writeChrome(l.path("sim-paper"), "sim-paper")
}

// clusterLayer: the PDES speedup on the message-level machine.
func (l *ladder) clusterLayer() {
	tr := newTracer()
	cells := clusterCells[2:4] // the 64-node cells
	iters := 3
	if l.e.smoke {
		iters = 1
	}
	at := func(w int, span bool) float64 {
		total := 0.0
		for _, c := range cells {
			if span {
				tr.time(fmt.Sprintf("machine.RunCluster %s w=%d", c.id(), w), func() {
					_, _, secs := runCell(c, iters, l.e.seed, w)
					total += secs
				})
			} else {
				_, _, secs := runCell(c, iters, l.e.seed, w)
				total += secs
			}
			l.o.Attempted++
		}
		return total
	}
	at(1, false) // warm
	w1, wmax := at(1, true), at(l.e.w, true)
	l.o.set("sim.pdes_speedup", "ratio", w1/wmax)
	l.o.set("trace.overhead_pct.sim-cluster", "%", (w1-at(1, false))/w1*100)
	if err := tr.writeChrome(l.path("sim-cluster"), "sim-cluster"); err != nil {
		l.o.verify("sim-cluster span file written", err)
	}
}

// directTATAS is a test-and-test-and-set lock written straight onto
// sync/atomic: what the spec-backed TATAS would cost with no
// lockspec.Env between the algorithm and the word.
type directTATAS struct{ word atomic.Uint32 }

func (l *directTATAS) acquire() {
	for {
		if l.word.Load() == 0 && l.word.CompareAndSwap(0, 1) {
			return
		}
	}
}

func (l *directTATAS) release() { l.word.Store(0) }

// coreLayer: the per-lock values behind the two native end-to-end
// numbers, the Env tax, the timed path the service uses and the obs
// wrapper.
func (l *ladder) coreLayer() error {
	tr := newTracer()
	rig := newNativeRig(l.e.w)
	pairN, slice := l.n(50_000), time.Duration(float64(8*time.Millisecond)*math.Max(l.scale, 0.1))
	var unc []float64
	plain, traced := 0.0, 0.0
	for i, lock := range rig.locks {
		name := string(nativeLocks[i])
		pairs(lock, rig.threads[0], pairN/4)
		var xs []float64
		for r := 0; r < 3; r++ {
			start := time.Now()
			xs = append(xs, pairs(lock, rig.threads[0], pairN))
			plain += time.Since(start).Seconds()
			start = time.Now()
			tr.time("core "+name+" uncontended", func() { pairs(lock, rig.threads[0], pairN) })
			traced += time.Since(start).Seconds()
		}
		l.o.set("core.uncontended_ns."+name, "ns", xs...)
		unc = append(unc, stats.Median(xs))

		var rates []float64
		for r := 0; r < 3; r++ {
			tr.time("core "+name+" handoff", func() {
				secs, ops, counter := handoffs(lock, rig.threads, slice)
				l.o.Attempted += int64(ops)
				l.o.Failed += int64(ops - counter)
				rates = append(rates, secs*1e9/float64(ops))
			})
		}
		l.o.set("core.contended_ns."+name, "ns", rates...)
	}
	var lost error
	if l.o.Failed > 0 {
		lost = fmt.Errorf("%d lost updates", l.o.Failed)
	}
	l.o.verify("no lost update on any lock", lost)
	l.o.set("trace.overhead_pct.native-locks", "%", (traced-plain)/plain*100)

	var d directTATAS
	direct := loopNS(pairN, func(n int) {
		for i := 0; i < n; i++ {
			d.acquire()
			d.release()
		}
	})
	l.o.set("core.direct_tatas_ns", "ns", direct)
	l.o.set("core.env_tax_pct", "%", (unc[0]-direct)/direct*100)

	hboLock := rig.locks[5]
	t := rig.threads[0]
	l.o.set("core.within_ns.HBO", "ns", loopNS(pairN, func(n int) {
		for i := 0; i < n; i++ {
			hbo.AcquireWithin(hboLock, t, 100*time.Millisecond)
			hboLock.Release(t)
		}
	}))
	inst := hbo.Instrument(hbo.NewLock(hbo.HBO, rig.rt), fmt.Sprintf("benchmark/hbo-%d", time.Now().UnixNano()))
	instNS := loopNS(pairN, func(n int) { pairs(inst, t, n) })
	l.o.set("obs.instrumented_ns.HBO", "ns", instNS)
	l.o.set("obs.overhead_pct", "%", (instNS-unc[5])/unc[5]*100)
	return tr.writeChrome(l.path("native-locks"), "native-locks")
}
