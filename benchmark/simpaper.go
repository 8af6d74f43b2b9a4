package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/microbench"
	"repro/internal/sim"
	"repro/internal/simlock"
	"repro/internal/stats"
)

// paperIDs are the paper's eleven result experiments in paper order.
// fig9/fig10 re-run the fig5 cell under other tunings and add no code
// path, so they are left out.
var paperIDs = []string{
	"table1", "fig3", "fig5", "table2", "table3", "table4",
	"table5", "table6", "fig6", "fig7", "fig8",
}

// simLocks are the locks the simulated cells cover: the paper's eight
// plus the two modern queue locks.
var simLocks = []string{
	"TATAS", "TATAS_EXP", "MCS", "CLH", "RH", "HBO", "HBO_GT", "HBO_GT_SD", "CNA", "HMCS_T",
}

// paperOptions are the settings every pass uses. The sweeps are the
// reduced ones (Quick) and application work is divided by 400 because a
// run has seconds, not the 23 s the full-resolution suite takes; the
// code paths are the same and the digests are pinned for exactly these
// options.
func paperOptions() experiments.Options {
	return experiments.Options{Seeds: 1, Scale: 400, Quick: true, Parallel: 1}
}

// smokeOptions shrink everything but table1 and table3, which stay at
// paperOptions so the smoke test still checks two pinned digests.
func smokeOptions(id string) (o experiments.Options, pinned bool) {
	if id == "table1" || id == "table3" {
		return paperOptions(), true
	}
	return experiments.Options{Seeds: 1, Scale: 4000, Quick: true, Parallel: 1, Threads: 6}, false
}

// digestTables is the identity of an experiment's output: a simulator
// speed-up must leave every simulated statistic, so every rendered
// cell, unchanged.
func digestTables(tables []*stats.Table) string {
	h := sha256.New()
	for _, t := range tables {
		h.Write([]byte(t.String()))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// loadDigests reads "<hex>  <id>" lines.
func loadDigests(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: bad line %q", path, line)
		}
		out[fields[1]] = fields[0]
	}
	return out, sc.Err()
}

// saveDigests merges got into the file at path.
func saveDigests(path, header string, got map[string]string) error {
	all, err := loadDigests(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		all = map[string]string{}
	}
	for id, d := range got {
		all[id] = d
	}
	ids := make([]string, 0, len(all))
	for id := range all {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	b.WriteString(header)
	for _, id := range ids {
		fmt.Fprintf(&b, "%s  %s\n", all[id], id)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// checkDigests compares got against the pinned file (or rewrites it
// under -update-digests) and names the first id that differs.
func checkDigests(e *env, file string, order []string, got map[string]string) error {
	path := filepath.Join(e.root, "benchmark", "testdata", file)
	if e.update {
		header := "# sha256 of each experiment's output. Rewritten by -update-digests; only a benchmark PR may do that.\n"
		return saveDigests(path, header, got)
	}
	want, err := loadDigests(path)
	if err != nil {
		return err
	}
	for _, id := range order {
		d, ok := got[id]
		if !ok {
			continue
		}
		if want[id] == "" {
			return fmt.Errorf("%s has no pinned digest", id)
		}
		if want[id] != d {
			return fmt.Errorf("%s differs from its pinned digest (first differing id)", id)
		}
	}
	return nil
}

// passes repeats fn until the budget is used, always at least twice so
// a median exists, and stops early rather than overrun by most of a
// pass. fn returns the pass's own duration in seconds.
func passes(budget time.Duration, fn func() float64) {
	start := time.Now()
	for n := 0; ; n++ {
		last := fn()
		used := time.Since(start)
		if n >= 1 && used+time.Duration(last*0.5*float64(time.Second)) > budget {
			return
		}
	}
}

// peakRSSMB is getrusage's max resident set of this process.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// exclusionLock checks the one thing a lock must do while the cell
// runs: never two holders. It also adds up the simulated time the lock
// was held, the critical-section length the traced run's throughput
// model needs. The simulator runs one process at a time on the host,
// so plain fields are enough.
type exclusionLock struct {
	simlock.Lock
	holders    int
	acquires   int
	violations int
	since      sim.Time
	held       sim.Time
}

func (l *exclusionLock) Acquire(p *machine.Proc, tid int) {
	l.Lock.Acquire(p, tid)
	l.holders++
	l.acquires++
	if l.holders != 1 {
		l.violations++
	}
	l.since = p.Now()
}

func (l *exclusionLock) Release(p *machine.Proc, tid int) {
	l.held += p.Now() - l.since
	l.holders--
	l.Lock.Release(p, tid)
}

// contendedCell runs the paper's new microbenchmark at the Table 2
// operating point for one lock and returns the result, the host time
// and the exclusion checker.
func contendedCell(lock string, seed uint64, iters int) (microbench.NewBenchResult, time.Duration, *exclusionLock) {
	cfg := machine.WildFire()
	cfg.Seed = seed
	var guard *exclusionLock
	start := time.Now()
	res := microbench.NewBench(microbench.NewBenchConfig{
		Machine: cfg, Lock: lock, Threads: cellThreads, Iterations: iters,
		CriticalWork: cellCritical, PrivateWork: cellPrivate, Tuning: simlock.DefaultTuning(),
		WrapLock: func(l simlock.Lock) simlock.Lock {
			guard = &exclusionLock{Lock: l}
			return guard
		},
	})
	return res, time.Since(start), guard
}

const (
	cellThreads  = 28
	cellCritical = 1500
	cellPrivate  = 4000
)

// runSimPaper is the "reproduce the paper" path. Every simulated CPU is
// a goroutine-backed sim.Process, so sim switching, machine.Proc
// accesses and simlock bodies do almost all the work here.
func runSimPaper(e *env, o *outcome) error {
	ids := paperIDs
	cellIters, probeRounds := 10, 4000
	if e.smoke {
		cellIters, probeRounds = 2, 200
	}
	run := func(id string) (string, float64) {
		ex, ok := experiments.ByID(id)
		if !ok {
			panic("unknown experiment " + id)
		}
		opts := paperOptions()
		if e.smoke {
			opts, _ = smokeOptions(id)
		}
		start := time.Now()
		tables := ex.Run(opts)
		d := time.Since(start).Seconds()
		return digestTables(tables), d
	}

	// Set-up: warm the engine's pooled heaps and grow the Go heap with a
	// fixed slice of the real work, so the first timed pass is not the
	// one that pays for it.
	var setups []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		run("table1")
		run("table3")
		if !e.smoke {
			run("fig3")
		}
		contendedCell("HBO", e.seed, 4)
		microbench.Uncontested(machine.WildFire(), "MCS", microbench.RemoteNode, 50)
		runtime.GC()
		setups = append(setups, time.Since(start).Seconds())
	}
	o.set("setup_s", "s", setups...)

	// latency_us: host time per simulated uncontested acquire-release on
	// one simulated CPU. One Process sleeping in place: the simulator's
	// fast path, no Process switch.
	var perPair []float64
	probeErr := error(nil)
	deadline := time.Now().Add(e.dur(0.12))
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		var slice []float64
		for _, name := range simLocks[:8] {
			cfg := machine.WildFire()
			cfg.Seed = e.seed
			start := time.Now()
			lat := microbench.Uncontested(cfg, name, microbench.SameProcessor, probeRounds)
			slice = append(slice, float64(time.Since(start).Nanoseconds())/1e3/float64(probeRounds))
			if lat <= 0 {
				probeErr = fmt.Errorf("%s: uncontested latency %v", name, lat)
			}
			o.Attempted++
		}
		perPair = append(perPair, geomean(slice))
	}
	o.set("latency_us", "us", perPair...)
	o.verify("uncontested probes return a positive simulated latency", probeErr)

	// ops_per_s: simulated lock acquisitions per host second on the
	// 28-thread cells, where every handoff is a Process switch.
	var acqPerS []float64
	cellErr := error(nil)
	deadline = time.Now().Add(e.dur(0.25))
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		var host time.Duration
		acq := 0
		for _, name := range simLocks {
			_, d, guard := contendedCell(name, e.seed+uint64(n), cellIters)
			host += d
			acq += guard.acquires
			o.Attempted++
			if guard.violations > 0 || guard.acquires != cellThreads*cellIters {
				cellErr = fmt.Errorf("%s: %d exclusion violations, %d of %d acquisitions",
					name, guard.violations, guard.acquires, cellThreads*cellIters)
				o.Failed++
			}
		}
		acqPerS = append(acqPerS, float64(acq)/host.Seconds())
	}
	o.set("ops_per_s", "1/s", acqPerS...)
	o.verify("simulated cells keep mutual exclusion and complete every acquisition", cellErr)

	// wall_s: the suite. Each experiment's time is the median over the
	// passes; the suite is their sum.
	times := map[string][]float64{}
	digests := map[string]string{}
	digestErr := error(nil)
	passes(e.dur(0.63), func() float64 {
		total := 0.0
		for _, id := range ids {
			d, secs := run(id)
			o.Attempted++
			if prev, ok := digests[id]; ok && prev != d {
				digestErr = fmt.Errorf("%s: output changed between passes", id)
			}
			digests[id] = d
			times[id] = append(times[id], secs)
			total += secs
		}
		return total
	})
	var parts [][]float64
	for _, id := range ids {
		parts = append(parts, times[id])
	}
	o.Metrics["wall_s"] = sumOfMedians("s", parts)
	if e.smoke {
		for _, id := range ids {
			if _, pinned := smokeOptions(id); !pinned {
				delete(digests, id)
			}
		}
	}
	if digestErr == nil {
		digestErr = checkDigests(e, "sim-paper.sha256", ids, digests)
	}
	if digestErr != nil {
		o.Failed++
	}
	o.verify("experiment outputs equal their pinned digests", digestErr)
	o.set("peak_rss_mb", "MB", peakRSSMB())
	return nil
}
