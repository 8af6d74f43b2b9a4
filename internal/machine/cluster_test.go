package machine

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// testClusterConfig is a small but genuinely contended cluster shape.
func testClusterConfig(policy ClusterPolicy) ClusterConfig {
	return ClusterConfig{
		Nodes:       16,
		CPUsPerNode: 4,
		ClusterSize: 4,
		Lat:         WildFireLatencies(),
		Policy:      policy,
		Iters:       8,
		Think:       2000,
		Hold:        600,
		Base:        2,
		Cap:         256,
		RemoteCap:   4096,
		Seed:        7,
	}
}

// digest renders a result to canonical JSON — the same serialization
// the report layer uses, so "byte-identical" means what it says.
func digest(t *testing.T, r ClusterResult) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestClusterByteIdenticalAcrossWidths is the machine-level half of the
// PDES determinism contract: one big machine, every worker width, one
// answer. Sixteen nodes are one span of the engine and run on one
// goroutine at any width; sixty-four are four, and share their windows.
func TestClusterByteIdenticalAcrossWidths(t *testing.T) {
	for _, nodes := range []int{16, 64} {
		for _, policy := range []ClusterPolicy{ClusterTATASExp, ClusterHBO} {
			cfg := testClusterConfig(policy)
			cfg.Nodes = nodes
			var want string
			for _, workers := range []int{1, 2, 4, 8} {
				r := RunCluster(cfg, workers)
				r.Workers = 0 // workers is metadata, not simulation output
				got := digest(t, r)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("nodes=%d policy=%s workers=%d diverged:\n got %s\nwant %s", nodes, policy, workers, got, want)
				}
			}
		}
	}
}

// TestClusterCompletesAllIterations: drain-based termination means the
// books balance exactly.
func TestClusterCompletesAllIterations(t *testing.T) {
	cfg := testClusterConfig(ClusterHBO)
	r := RunCluster(cfg, 4)
	want := uint64(cfg.Nodes) * uint64(cfg.CPUsPerNode) * uint64(cfg.Iters)
	if r.Acquires != want {
		t.Fatalf("acquires = %d, want %d", r.Acquires, want)
	}
	if r.Attempts < r.Acquires {
		t.Fatalf("attempts %d < acquires %d", r.Attempts, r.Acquires)
	}
	if r.Elapsed <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

// TestClusterHBOThrottlesGlobalTraffic reproduces the paper's central
// claim at cluster scale: remote-throttled backoff spends fewer
// interconnect messages per acquire than uniform exponential backoff.
func TestClusterHBOThrottlesGlobalTraffic(t *testing.T) {
	uniform := RunCluster(testClusterConfig(ClusterTATASExp), 4)
	hbo := RunCluster(testClusterConfig(ClusterHBO), 4)
	if hbo.GlobalPerAcquire() >= uniform.GlobalPerAcquire() {
		t.Fatalf("HBO global/acquire %.2f not below uniform %.2f",
			hbo.GlobalPerAcquire(), uniform.GlobalPerAcquire())
	}
	if hbo.Acquires != uniform.Acquires {
		t.Fatalf("policies completed different work: %d vs %d", hbo.Acquires, uniform.Acquires)
	}
}

// TestClusterTimeLimit: a limit-only run stops at the limit and still
// reports deterministically.
func TestClusterTimeLimit(t *testing.T) {
	cfg := testClusterConfig(ClusterTATASExp)
	cfg.Iters = 0
	cfg.TimeLimit = 200 * sim.Microsecond
	a := RunCluster(cfg, 1)
	b := RunCluster(cfg, 4)
	a.Workers, b.Workers = 0, 0
	if digest(t, a) != digest(t, b) {
		t.Fatal("time-limited run not width-stable")
	}
	if a.Acquires == 0 {
		t.Fatal("no acquires before the time limit")
	}
	if a.Elapsed > cfg.TimeLimit {
		t.Fatalf("elapsed %v past limit %v", a.Elapsed, cfg.TimeLimit)
	}
}

// TestClusterScalesToHundredsOfNodes: the shape the sequential
// word-level machine cannot reach (its sharer bitmap caps at 64 CPUs).
func TestClusterScalesToHundredsOfNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("large topology")
	}
	cfg := testClusterConfig(ClusterHBO)
	cfg.Nodes = 256
	cfg.CPUsPerNode = 2
	cfg.ClusterSize = 16
	cfg.Iters = 2
	r := RunCluster(cfg, 8)
	want := uint64(cfg.Nodes) * uint64(cfg.CPUsPerNode) * uint64(cfg.Iters)
	if r.Acquires != want {
		t.Fatalf("acquires = %d, want %d", r.Acquires, want)
	}
	if len(r.Nodes) != 256 {
		t.Fatalf("per-node stats for %d nodes, want 256", len(r.Nodes))
	}
}

// TestClusterValidate covers the configuration gate.
func TestClusterValidate(t *testing.T) {
	ok := testClusterConfig(ClusterHBO)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := map[string]func(*ClusterConfig){
		"one node":       func(c *ClusterConfig) { c.Nodes = 1 },
		"zero cpus":      func(c *ClusterConfig) { c.CPUsPerNode = 0 },
		"no termination": func(c *ClusterConfig) { c.Iters = 0; c.TimeLimit = 0 },
		"zero c2c":       func(c *ClusterConfig) { c.Lat.C2CRemote = 0 },
		"cap below base": func(c *ClusterConfig) { c.Base = 8; c.Cap = 4 },
		"remote cap low": func(c *ClusterConfig) { c.RemoteCap = ok.Cap - 1 },
		"unknown policy": func(c *ClusterConfig) { c.Policy = "mcs" },
		"negative shape": func(c *ClusterConfig) { c.ClusterSize = -1 },
	}
	for name, mutate := range cases {
		c := testClusterConfig(ClusterHBO)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad config", name)
		}
	}
}

// TestLookaheadDerivation pins the latency-tree extraction: flight time
// is half the smallest cross-node transfer cost.
func TestLookaheadDerivation(t *testing.T) {
	l := WildFireLatencies()
	if got, want := l.MinCrossNodeFlight(), sim.Time(850); got != want {
		t.Fatalf("WildFire lookahead %v, want %v (MemRemote 1700 / 2)", got, want)
	}
	l.MemRemote = 0 // cross-node memory disabled: C2C bound remains
	if got, want := l.MinCrossNodeFlight(), sim.Time(985); got != want {
		t.Fatalf("lookahead %v, want %v (C2CRemote 1970 / 2)", got, want)
	}
	l.C2CFar = 100 // a far tier *below* remote still bounds the window
	if got, want := l.MinCrossNodeFlight(), sim.Time(50); got != want {
		t.Fatalf("lookahead %v, want %v", got, want)
	}
	var zero Latencies
	if got := zero.MinCrossNodeFlight(); got < 1 {
		t.Fatalf("zero latencies must floor at 1ns, got %v", got)
	}
	if cfg := WildFire(); cfg.Lookahead() != cfg.Lat.MinCrossNodeFlight() {
		t.Fatal("Config.Lookahead does not delegate to the latency tree")
	}
}

// TestClusterSteadyStateAllocs: the event path allocates nothing. What a
// run allocates is its construction (engine, nodes, the CPUs' bound
// closures) and the first growth of heaps and outboxes, so four times the
// iterations cost the same allocations, not four times as many.
func TestClusterSteadyStateAllocs(t *testing.T) {
	allocs := func(iters int) float64 {
		cfg := testClusterConfig(ClusterTATASExp)
		cfg.Iters = iters
		return testing.AllocsPerRun(5, func() { RunCluster(cfg, 1) })
	}
	one, four := allocs(1), allocs(4)
	t.Logf("allocations per run: %.0f at Iters 1, %.0f at Iters 4", one, four)
	if four > one*1.05 {
		t.Fatalf("%.0f allocations at Iters 4, %.0f at Iters 1: the event path allocates", four, one)
	}
}

// TestClusterWidthGuard is the parallel assertion that can run on a small
// host: the 256-node uniform-backoff cell, the one the repo's benchmark
// spends most of sim-cluster in, must not be slower on the host's worker
// width than on one. A timing assertion, so gated like the speedup guard:
//
//	HBO_BENCH_SPEEDUP=1 go test -run TestClusterWidthGuard -v ./internal/machine/
func TestClusterWidthGuard(t *testing.T) {
	const claim = "RunCluster of the 256-node tatas_exp cell at min(GOMAXPROCS, 4) workers takes at most 1.10x its one-worker time"
	if os.Getenv("HBO_BENCH_SPEEDUP") != "1" {
		t.Skipf("set HBO_BENCH_SPEEDUP=1 to run the width guard; not asserted: %s", claim)
	}
	w := guardWidth()
	if w < 2 {
		t.Skipf("GOMAXPROCS is %d; the width guard needs >= 2; not asserted: %s", runtime.GOMAXPROCS(0), claim)
	}
	cfg := clu1Cell(ClusterTATASExp)
	best := func(workers int) time.Duration {
		var best time.Duration
		for i := 0; i < 5; i++ {
			start := time.Now()
			RunCluster(cfg, workers)
			if d := time.Since(start); i == 0 || d < best {
				best = d
			}
		}
		return best
	}
	RunCluster(cfg, w) // warm the heap pool
	one, wide := best(1), best(w)
	t.Logf("workers=1 %v, workers=%d %v (%.2fx)", one, w, wide, float64(wide)/float64(one))
	if float64(wide) > 1.10*float64(one) {
		t.Fatalf("workers=%d took %v, %.2fx the %v of workers=1 (want <= 1.10x)", w, wide, float64(wide)/float64(one), one)
	}
}
