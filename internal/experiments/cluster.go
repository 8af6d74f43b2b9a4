package experiments

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/stats"
)

// Cluster-scale study (beyond the paper): the HBO mechanism re-examined
// on machines with hundreds of nodes, simulated by the conservative
// PDES engine (machine.RunCluster on sim.ParEngine). Each cell is one
// big machine whose node partitions execute across SimWorkers host
// cores; Options.Parallel still fans the independent cells. This is the
// experiment family the sequential word-level machine cannot reach —
// its sharer bitmap caps at 64 CPUs — and the first consumer of the
// two-layer fan-out (Parallel × SimWorkers, product capped at
// GOMAXPROCS).

// clu1Nodes returns the node counts swept.
func clu1Nodes(o Options) []int {
	if o.Quick {
		return []int{16, 64}
	}
	return []int{16, 64, 256}
}

// clu1Config builds one cluster cell. The latency calibration is the
// WildFire tree with a far tier, so the PDES lookahead derives from the
// same constants as every other experiment.
func clu1Config(nodes int, policy machine.ClusterPolicy, o Options, seed uint64) machine.ClusterConfig {
	iters := 8
	if o.Quick {
		iters = 4
	}
	lat := machine.WildFireLatencies()
	lat.C2CFar = 3400
	lat.MemFar = 3000
	return machine.ClusterConfig{
		Nodes:       nodes,
		CPUsPerNode: 4,
		ClusterSize: 8,
		Lat:         lat,
		Policy:      policy,
		Iters:       iters,
		Think:       4000,
		Hold:        600,
		Base:        2,
		Cap:         256,
		RemoteCap:   4096,
		Seed:        seed,
	}
}

// Clu1 sweeps node count × backoff policy on the parallel-simulated
// cluster machine and reports throughput, interconnect traffic per
// acquire and node fairness — Table 2 and Figure 8 re-asked at
// datacenter scale.
func Clu1(o Options) []*stats.Table {
	nodeCounts := clu1Nodes(o)
	policies := []machine.ClusterPolicy{machine.ClusterTATASExp, machine.ClusterHBO}
	cells := make([]machine.ClusterResult, len(nodeCounts)*len(policies))
	pool, workers := o.composeFor(len(cells))
	par.ForEach(pool, len(cells), func(i int) {
		nodes, pol := nodeCounts[i/len(policies)], policies[i%len(policies)]
		cells[i] = machine.RunCluster(clu1Config(nodes, pol, o, 1), workers)
	})
	t := stats.NewTable(
		"Cluster 1: backoff policy at scale (PDES, one machine across cores)",
		"Nodes", "Policy", "Acquires", "Global/Acquire", "Fairness", "Sim Time")
	for i, r := range cells {
		nodes := nodeCounts[i/len(policies)]
		t.AddRow(
			fmt.Sprint(nodes),
			string(r.Policy),
			fmt.Sprint(r.Acquires),
			fmt.Sprintf("%.2f", r.GlobalPerAcquire()),
			fmt.Sprintf("%.3f", r.Fairness()),
			r.Elapsed.String(),
		)
	}
	return []*stats.Table{t}
}
