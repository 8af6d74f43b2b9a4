package machine

import (
	"fmt"
	"runtime"
	"testing"
)

// clu1Cell is the 256-node cell of the clu1 sweep as the repo's benchmark
// runs it (benchmark/simcluster.go: far tier, clusters of eight, Iters 3):
// the "one cluster cell" rung between PHOLD and the whole suite.
func clu1Cell(policy ClusterPolicy) ClusterConfig {
	lat := WildFireLatencies()
	lat.C2CFar = 3400
	lat.MemFar = 3000
	return ClusterConfig{
		Nodes: 256, CPUsPerNode: 4, ClusterSize: 8, Lat: lat, Policy: policy,
		Iters: 3, Think: 4000, Hold: 600, Base: 2, Cap: 256, RemoteCap: 4096, Seed: 11,
	}
}

// guardWidth is the parallel width the cell is measured at: what the
// repo's benchmark uses on this host.
func guardWidth() int { return min(runtime.GOMAXPROCS(0), 4) }

// BenchmarkRunCluster times one 256-node cell at width 1 and at the host's
// width. events/op counts the callbacks the state machine fired: attempt,
// decide and reply per probe, hold-end and release per acquire.
func BenchmarkRunCluster(b *testing.B) {
	widths := []int{1}
	if w := guardWidth(); w > 1 {
		widths = append(widths, w)
	}
	for _, policy := range []ClusterPolicy{ClusterTATASExp, ClusterHBO} {
		for _, w := range widths {
			b.Run(fmt.Sprintf("nodes=256/%s/workers=%d", policy, w), func(b *testing.B) {
				cfg := clu1Cell(policy)
				b.ReportAllocs()
				var r ClusterResult
				for i := 0; i < b.N; i++ {
					r = RunCluster(cfg, w)
				}
				b.ReportMetric(float64(3*r.Attempts+2*r.Acquires), "events/op")
			})
		}
	}
}
