// Package experiments regenerates every table and figure of the paper's
// evaluation (section 5 and 6) from the simulation stack. Each driver
// returns stats.Tables whose rows/series match what the paper reports;
// EXPERIMENTS.md records measured-vs-paper for each.
package experiments

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/simlock"
	"repro/internal/stats"
)

// Options tune how much work the drivers do.
type Options struct {
	// Seeds is the number of repetitions used where the paper reports
	// variance (Tables 4 and 5). Minimum 1.
	Seeds int
	// Scale divides application work (see apps.Config.Scale).
	Scale int
	// Quick shrinks sweeps and iteration counts for tests and smoke
	// runs; shapes survive, absolute noise grows.
	Quick bool
	// Threads overrides the default 28-thread runs when positive.
	Threads int
	// Parallel is the worker-pool width used to fan independent
	// simulation cells across CPUs (0 or 1 = sequential). Cells merge
	// back in a fixed canonical order, so tables and JSON reports are
	// byte-identical for any width.
	Parallel int
	// SimWorkers is the intra-simulation PDES worker width: how many
	// host cores one partitioned simulation (the cluster-scale machine,
	// sim.ParEngine) may use. It composes with Parallel — Parallel fans
	// *across* cells, SimWorkers fans *inside* one — and the product is
	// capped at GOMAXPROCS (see composeFor). Classic word-level
	// machine cells are single-partition and ignore it. Like Parallel,
	// any value produces byte-identical tables and JSON reports; only
	// wall-clock time changes.
	SimWorkers int
}

func (o Options) seeds() int {
	if o.Seeds < 1 {
		return 1
	}
	return o.Seeds
}

func (o Options) scale() int {
	if o.Scale < 1 {
		return 1
	}
	return o.Scale
}

func (o Options) threads(def int) int {
	if o.Threads > 0 {
		return o.Threads
	}
	return def
}

func (o Options) parallel() int {
	if o.Parallel < 1 {
		return 1
	}
	return o.Parallel
}

func (o Options) simWorkers() int {
	if o.SimWorkers < 1 {
		return 1
	}
	return o.SimWorkers
}

// composeFor returns the pool width and the PDES worker width for
// `cells` partitioned simulations, capping their product at GOMAXPROCS
// with the inner width winning (par.Compose), so the two fan-out layers
// compose instead of oversubscribing the host. The cap only trims
// wall-clock concurrency: results are width-independent by the PDES
// determinism contract, so the host-dependent clamp never leaks into
// output bytes.
func (o Options) composeFor(cells int) (pool, inner int) {
	pool = o.parallel()
	if pool > cells && cells > 0 {
		pool = cells
	}
	return par.Compose(pool, o.simWorkers())
}

// parfor fans fn(i) for i in [0, n) over the configured worker pool.
// Each call must write only to its own result slot so that assembly in
// index order reproduces the sequential output exactly.
func (o Options) parfor(n int, fn func(i int)) {
	par.ForEach(o.parallel(), n, fn)
}

// wildfire returns the standard experiment machine, seeded.
func wildfire(seed uint64) machine.Config {
	cfg := machine.WildFire()
	cfg.Seed = seed
	return cfg
}

// Experiment pairs an id with its driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) []*stats.Table
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Uncontested performance for a single acquire-release operation", Table1},
		{"fig3", "Traditional microbenchmark on a 2-node NUCA", Fig3},
		{"fig5", "New microbenchmark, 28-processor runs", Fig5},
		{"table2", "Normalized local and global traffic (new microbenchmark)", Table2},
		{"table3", "SPLASH-2 programs and lock statistics", Table3},
		{"table4", "Raytrace performance (1, 28, 30 CPUs)", Table4},
		{"table5", "Application performance, 28-processor runs", Table5},
		{"table6", "Normalized traffic for all locking algorithms", Table6},
		{"fig6", "Normalized speedup for 28-processor runs", Fig6},
		{"fig7", "Speedup for Raytrace", Fig7},
		{"fig8", "Fairness study", Fig8},
		{"fig9", "Sensitivity: REMOTE_BACKOFF_CAP", Fig9},
		{"fig10", "Sensitivity: GET_ANGRY_LIMIT", Fig10},
		{"ext1", "Extension: every registered algorithm on the new microbenchmark", Ext1},
		{"ext2", "Extension: hierarchical CMP-server machine", Ext2},
		{"ext3", "Extension: compacting guarded data onto one cache line", Ext3},
		{"ext4", "Extension: HBO vs modern NUMA locks (CNA, HMCS-T)", Ext4},
		{"deg1", "Degradation: fault-intensity sweep on the new microbenchmark", Deg1},
		{"deg2", "Degradation: node-count sweep under a fixed fault plan", Deg2},
		{"clu1", "Cluster scale: backoff policies on a parallel-simulated big machine", Clu1},
		{"cmp1", "Comparison: Table 1 measured vs paper", Cmp1},
		{"cmp2", "Comparison: Table 2 measured vs paper", Cmp2},
		{"cmp4", "Comparison: Table 4 measured vs paper", Cmp4},
		{"cmp5", "Comparison: Table 5 measured vs paper", Cmp5},
	}
}

// IDs lists the experiment ids in order.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// ByID returns the named experiment and whether it exists.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// lockNames is the paper's algorithm order.
func lockNames() []string { return simlock.Names() }

// fmtTime renders nanoseconds the way Table 1 does.
func fmtNS(ns float64) string { return fmt.Sprintf("%.0f ns", ns) }

// meanVar renders "mean (variance)" the way Tables 4 and 5 do.
func meanVar(xs []float64) string {
	s := stats.Summarize(xs)
	return fmt.Sprintf("%.2f (%.2f)", s.Mean, s.Variance)
}
