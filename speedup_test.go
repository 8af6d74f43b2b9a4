// The parallel-simulation speedup guard: proof that the fan-out layers
// actually buy wall-clock time on a multi-core host, not just pass
// byte-identity checks.
//
// Like internal/obs's TestOverheadGuard, it is a timing assertion and
// therefore gated behind an environment variable — run it alone on an
// otherwise idle machine:
//
//	HBO_BENCH_SPEEDUP=1 go test -run TestParallelSpeedupGuard -v .
//
// On hosts with fewer than 4 CPUs the test SKIPS — it never fakes a
// pass. BENCH_pdes.json records why: a 1-CPU container reports parity
// for every width, which is a property of the host, not the engine.
package hbo_test

import (
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
)

// speedupOptions is the guard's workload shape: the full experiment
// suite in quick mode, heavy enough that pool scheduling overhead is
// noise but light enough for a CI timing step.
func speedupOptions() experiments.Options {
	return experiments.Options{Seeds: 1, Scale: 800, Quick: true}
}

// runSuite runs experiments.All() once at the given fan-out widths and
// returns the wall-clock time.
func runSuite(t *testing.T, parallel, simWorkers int) time.Duration {
	t.Helper()
	o := speedupOptions()
	o.Parallel = parallel
	o.SimWorkers = simWorkers
	start := time.Now()
	for _, e := range experiments.All() {
		if tables := e.Run(o); len(tables) == 0 {
			t.Fatalf("experiment %s produced no output", e.ID)
		}
	}
	return time.Since(start)
}

// minDuration returns the fastest of `rounds` suite runs — minimum,
// because a speedup measurement cares about the undisturbed cost and
// every disturbance is additive noise.
func minDuration(t *testing.T, rounds, parallel, simWorkers int) time.Duration {
	t.Helper()
	var best time.Duration
	for i := 0; i < rounds; i++ {
		d := runSuite(t, parallel, simWorkers)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// TestParallelSpeedupGuard fails when running the whole experiment
// suite with both fan-out layers open (-parallel and -sim-workers at 8,
// product capped at GOMAXPROCS) is not substantially faster than the
// fully sequential run. The bar scales with the host: >= 4x on 8+
// cores (the ISSUE acceptance number), >= cores/2 on 4-7 cores, and a
// skip — never a fake pass — below 4.
func TestParallelSpeedupGuard(t *testing.T) {
	// A skip says what it did not check, so a green run on a small or
	// ungated host is not read as the assertion having held.
	const claim = "the suite at -parallel 8 -sim-workers 8 runs >= cpus/2 times faster than sequential (>= 4x from 8 CPUs)"
	if os.Getenv("HBO_BENCH_SPEEDUP") != "1" {
		t.Skipf("set HBO_BENCH_SPEEDUP=1 to run the speedup guard; not asserted: %s", claim)
	}
	cpus := runtime.GOMAXPROCS(0)
	if cpus < 4 {
		t.Skipf("GOMAXPROCS is %d; the speedup guard needs >= 4 (parity on a small host is the host's fault, not the engine's); not asserted: %s", cpus, claim)
	}
	want := 4.0
	if cpus < 8 {
		want = float64(cpus) / 2
	}

	const rounds = 3
	// One warmup of each side before measuring.
	runSuite(t, 1, 1)
	runSuite(t, 8, 8)
	seq := minDuration(t, rounds, 1, 1)
	par := minDuration(t, rounds, 8, 8)
	speedup := float64(seq) / float64(par)
	t.Logf("sequential=%v parallel=%v speedup=%.2fx (want >= %.1fx on %d CPUs)", seq, par, speedup, want, cpus)
	if speedup < want {
		t.Fatalf("parallel suite %.2fx speedup below the %.1fx bar for a %d-CPU host (seq=%v par=%v)",
			speedup, want, cpus, seq, par)
	}
}
