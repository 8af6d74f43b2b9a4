// Command lockcheck runs the schedule-exploring lock-correctness
// harness (internal/check) over the simulated instantiation of every
// lock, and optionally the cross-check against its native instantiation.
//
// Usage:
//
//	lockcheck                          # default budget, all simlock locks
//	lockcheck -schedules 100           # small budget (the CI smoke run)
//	lockcheck -locks HBO_GT_SD,MCS     # subset
//	lockcheck -twins                   # add the native-twin comparison
//	lockcheck -faults                  # re-explore under every fault class
//	lockcheck -selftest                # prove the oracles catch known bugs
//	lockcheck -json report.json        # also write the JSON report
//
// -selftest also proves the parallel simulation engine honest: it runs
// the cluster-scale machine at PDES worker widths 1 and -sim-workers
// and fails unless the two runs' results are byte-identical. A
// determinism bug in the parallel engine would silently corrupt every
// report produced with -sim-workers > 1, so the selftest treats "same
// bytes at every width" as an oracle like any other.
//
// The explorer is deterministic: the same -seed explores the same
// schedule set for each lock and produces a byte-identical JSON report.
// The -twins layer runs real goroutines and is therefore not
// bit-reproducible; it is excluded from the report unless requested.
//
// -faults repeats the exploration on degraded machines, once per fault
// class (spike, storm, pause, nack, all), driving locks with a timed
// path through their abort-and-retry loop under a tight budget. Every
// oracle — mutual exclusion, quiescence, progress, fairness — must
// still hold on a sick machine.
//
// Exit status is non-zero when any oracle fails, any twin diverges, or
// -selftest finds an oracle asleep.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/machine"
	"repro/internal/simlock"
)

// parEngineSelfTest runs the cluster-scale machine — the model that
// actually exercises sim.ParEngine's cross-partition messaging — under
// both backoff policies at PDES widths 1 and `workers`, and fails
// unless each pair of runs serializes to identical bytes. Workers is a
// wall-clock knob, never a semantic one; any divergence is an engine
// determinism bug.
func parEngineSelfTest(seed uint64, workers int) error {
	if workers < 1 {
		workers = 1
	}
	for _, policy := range []machine.ClusterPolicy{machine.ClusterTATASExp, machine.ClusterHBO} {
		cfg := machine.ClusterConfig{
			Nodes:       16,
			CPUsPerNode: 4,
			ClusterSize: 4,
			Lat:         machine.WildFireLatencies(),
			Policy:      policy,
			Iters:       8,
			Think:       2000,
			Hold:        600,
			Base:        2,
			Cap:         256,
			RemoteCap:   4096,
			Seed:        seed,
		}
		digest := func(w int) ([]byte, error) {
			r := machine.RunCluster(cfg, w)
			r.Workers = 0 // metadata, not simulation output
			return json.Marshal(r)
		}
		seq, err := digest(1)
		if err != nil {
			return err
		}
		par, err := digest(workers)
		if err != nil {
			return err
		}
		if !bytes.Equal(seq, par) {
			return fmt.Errorf("parallel engine NOT deterministic: policy %s diverges between widths 1 and %d", policy, workers)
		}
	}
	return nil
}

func main() {
	var (
		schedules = flag.Int("schedules", 1000, "distinct schedules to explore per lock")
		maxRuns   = flag.Int("maxruns", 0, "cap on runs per lock (0 = 4x schedules)")
		seed      = flag.Uint64("seed", 1, "exploration seed (same seed = same schedules = same report)")
		locks     = flag.String("locks", "", "comma-separated lock names (default: all simulated locks)")
		twins     = flag.Bool("twins", false, "also run the native-twin differential comparison")
		faults    = flag.Bool("faults", false, "also re-explore every lock under each fault class")
		selftest  = flag.Bool("selftest", false, "run the broken-lock oracle self-test and the parallel-engine determinism check, then exit")
		simWkrs   = flag.Int("sim-workers", 4, "PDES worker width the selftest checks against width 1")
		jsonPath  = flag.String("json", "", "write the JSON report to this file ('-' = stdout)")
	)
	flag.Parse()

	if *schedules <= 0 {
		fmt.Fprintf(os.Stderr, "lockcheck: -schedules must be positive (got %d)\n", *schedules)
		os.Exit(2)
	}
	if *maxRuns < 0 {
		fmt.Fprintf(os.Stderr, "lockcheck: -maxruns must be non-negative (got %d)\n", *maxRuns)
		os.Exit(2)
	}

	budget := check.Budget{Schedules: *schedules, MaxRuns: *maxRuns}

	if *selftest {
		if undetected := check.SelfTest(*seed, budget); len(undetected) > 0 {
			fmt.Fprintf(os.Stderr, "lockcheck: oracles MISSED injected bugs in: %s\n",
				strings.Join(undetected, ", "))
			os.Exit(1)
		}
		fmt.Println("selftest: all injected bugs detected")
		if err := parEngineSelfTest(*seed, *simWkrs); err != nil {
			fmt.Fprintf(os.Stderr, "lockcheck: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("selftest: parallel engine byte-identical at widths 1 and %d\n", *simWkrs)
		return
	}

	var names []string
	if *locks != "" {
		names = strings.Split(*locks, ",")
		for _, n := range names {
			// Fail fast on typos instead of panicking mid-run.
			found := false
			for _, known := range simlock.AllNames() {
				if n == known {
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "lockcheck: unknown lock %q (known: %s)\n",
					n, strings.Join(simlock.AllNames(), ", "))
				os.Exit(2)
			}
		}
	}

	start := time.Now()
	rep := check.Explore(names, *seed, budget)
	for _, lr := range rep.Locks {
		status := "ok"
		if !lr.Passed() {
			status = fmt.Sprintf("FAIL (%d failing runs)", lr.FailedRuns)
		}
		fmt.Printf("%-12s %5d distinct schedules in %5d runs  maxwait=%-10s burst=%-3d %s\n",
			lr.Lock, lr.Distinct, lr.Runs, fmt.Sprintf("%dns", lr.MaxWaitNS), lr.MaxBurst, status)
		for _, f := range lr.Failures {
			fmt.Printf("    run %d (seed=%d tiebreak=%d sig=%s):\n",
				f.Run, f.Seed, f.TieBreak, f.Sig)
			for _, msg := range f.Failures {
				fmt.Printf("      %s\n", msg)
			}
		}
	}

	if *faults {
		results := check.ExploreFaults(names, *seed, budget)
		rep.Faults = results
		for _, lr := range results {
			status := "ok"
			if !lr.Passed() {
				status = fmt.Sprintf("FAIL (%d failing runs)", lr.FailedRuns)
				rep.Passed = false
			}
			fmt.Printf("%-22s %5d distinct schedules in %5d runs  aborts=%-6d %s\n",
				lr.Lock, lr.Distinct, lr.Runs, lr.Aborts, status)
			for _, f := range lr.Failures {
				fmt.Printf("    run %d (seed=%d tiebreak=%d sig=%s):\n",
					f.Run, f.Seed, f.TieBreak, f.Sig)
				for _, msg := range f.Failures {
					fmt.Printf("      %s\n", msg)
				}
			}
		}
	}

	if *twins {
		results := check.CheckTwins(names, *seed, check.DefaultTwinStress())
		rep.Twins = results
		for _, r := range results {
			status := "ok"
			if !r.Passed() {
				status = "DIVERGED"
				rep.Passed = false
			}
			fmt.Printf("twin %-12s sim(loc=%.2f burst=%d) native(loc=%.2f burst=%d) %s\n",
				r.Lock, r.SimLocality, r.SimMaxBurst, r.CoreLocality, r.CoreMaxBurst, status)
			for _, d := range append(append(r.SimFailures, r.CoreFailures...), r.Divergences...) {
				fmt.Printf("    %s\n", d)
			}
		}
	}
	fmt.Printf("checked %d locks in %.1fs\n", len(rep.Locks), time.Since(start).Seconds())

	if *jsonPath != "" {
		w := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lockcheck: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			w = f
		}
		if err := rep.WriteJSON(w); err != nil {
			fmt.Fprintf(os.Stderr, "lockcheck: %v\n", err)
			os.Exit(2)
		}
	}

	if !rep.Passed {
		os.Exit(1)
	}
}
