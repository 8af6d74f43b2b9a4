package machine

import (
	"fmt"

	"repro/internal/sim"
)

// This file is the parallel-simulation tier of the machine package: a
// cluster-scale interconnect model that runs ONE big machine across all
// host cores, byte-identically at any worker width.
//
// The word-level coherence machine (machine.go/proc.go) simulates every
// cache line of a 2..8-node box exactly, but its directory, buses and
// global link are shared state touched by every access, so a single run
// is inherently one partition — it stays on the sequential engine. The
// cluster model trades word-level detail for scale: each node is one
// sim.Part owning all of its CPUs' state, and the only cross-node
// interactions are the interconnect transactions the HBO paper actually
// reasons about — lock probes (CAS requests), grant/deny replies and
// releases — carried as timestamped messages whose one-way latency is
// the latency tree's flight time. The PDES lookahead is exactly
// Latencies.MinCrossNodeFlight, so the conservative window argument is
// inherited from the hardware model rather than hand-tuned.
//
// The model reproduces the paper's mechanism at scales the original
// machine cannot reach (hundreds of nodes): uniform exponential backoff
// floods the interconnect with remote probes, while HBO-style remote
// throttling (back off harder when the observed holder is on another
// node) keeps traffic near-local and trades a controlled amount of
// fairness for it.

// ClusterPolicy selects the backoff algorithm the cluster CPUs run.
type ClusterPolicy string

const (
	// ClusterTATASExp is uniform capped exponential backoff: the
	// distance to the lock holder does not change the delay.
	ClusterTATASExp ClusterPolicy = "tatas_exp"
	// ClusterHBO throttles remote probes the way the paper's HBO lock
	// does: a CPU that loses to a holder on another node backs off
	// against RemoteCap (>> Cap), so lock traffic stays on the holder's
	// node while remote nodes stay away.
	ClusterHBO ClusterPolicy = "hbo"
)

// ClusterConfig describes one big-machine cluster simulation.
type ClusterConfig struct {
	// Nodes is the number of NUCA nodes (= PDES partitions). At least 2
	// — a single node has no interconnect to model.
	Nodes int
	// CPUsPerNode is the number of lock-contending CPUs on each node.
	CPUsPerNode int
	// ClusterSize groups nodes into super-clusters (0/1 = flat): probes
	// inside a cluster pay C2CRemote, across clusters C2CFar.
	ClusterSize int
	// Lat is the latency calibration; cross-node message latency and
	// the PDES lookahead both derive from it.
	Lat Latencies
	// Policy is the backoff algorithm (default ClusterTATASExp).
	Policy ClusterPolicy
	// Iters is how many acquire/release pairs each CPU performs.
	Iters int
	// Think is the mean exponential think time between a CPU's release
	// and its next acquire attempt.
	Think sim.Time
	// Hold is the critical-section hold time.
	Hold sim.Time
	// Base, Cap and RemoteCap are backoff bounds in BackoffUnit units:
	// delay doubles from Base per consecutive failure up to Cap (local
	// holder) or RemoteCap (remote holder, HBO policy only; 0 falls
	// back to Cap).
	Base, Cap, RemoteCap int
	// Seed drives every per-node RNG stream (partition-stable).
	Seed uint64
	// TimeLimit stops the run even if iterations remain (0 = none).
	TimeLimit sim.Time
}

// Validate reports configuration errors, mirroring Config.Validate's
// role as the single up-front gate for cluster shapes.
func (c ClusterConfig) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("machine: cluster Nodes = %d, need >= 2", c.Nodes)
	}
	if c.CPUsPerNode < 1 {
		return fmt.Errorf("machine: cluster CPUsPerNode = %d, need >= 1", c.CPUsPerNode)
	}
	if c.ClusterSize < 0 {
		return fmt.Errorf("machine: cluster ClusterSize = %d, need >= 0", c.ClusterSize)
	}
	if c.Iters < 1 && c.TimeLimit <= 0 {
		return fmt.Errorf("machine: cluster needs Iters >= 1 or a TimeLimit")
	}
	if c.Lat.C2CRemote <= 0 {
		return fmt.Errorf("machine: cluster C2CRemote = %v, need > 0", c.Lat.C2CRemote)
	}
	if c.Base < 1 || c.Cap < c.Base {
		return fmt.Errorf("machine: cluster backoff Base=%d Cap=%d, need 1 <= Base <= Cap", c.Base, c.Cap)
	}
	if c.RemoteCap != 0 && c.RemoteCap < c.Cap {
		return fmt.Errorf("machine: cluster RemoteCap=%d below Cap=%d", c.RemoteCap, c.Cap)
	}
	switch c.policy() {
	case ClusterTATASExp, ClusterHBO:
	default:
		return fmt.Errorf("machine: unknown cluster policy %q", c.Policy)
	}
	return nil
}

func (c ClusterConfig) policy() ClusterPolicy {
	if c.Policy == "" {
		return ClusterTATASExp
	}
	return c.Policy
}

func (c ClusterConfig) remoteCap() int {
	if c.RemoteCap > 0 {
		return c.RemoteCap
	}
	return c.Cap
}

func (c ClusterConfig) backoffUnit() sim.Time {
	if c.Lat.BackoffUnit > 0 {
		return c.Lat.BackoffUnit
	}
	return 1
}

// clusterOf mirrors Machine.ClusterOf for the cluster config.
func (c ClusterConfig) clusterOf(node int) int {
	if c.ClusterSize <= 1 {
		return node
	}
	return node / c.ClusterSize
}

// flight returns the one-way message latency between two distinct
// nodes: half the cache-to-cache transfer cost at their distance,
// never below the engine lookahead (both derive from the same tree).
func (c ClusterConfig) flight(a, b int) sim.Time {
	lat := c.Lat.C2CRemote
	if c.ClusterSize > 1 && c.clusterOf(a) != c.clusterOf(b) && c.Lat.C2CFar > 0 {
		lat = c.Lat.C2CFar
	}
	f := lat / 2
	if min := c.Lat.MinCrossNodeFlight(); f < min {
		f = min
	}
	return f
}

// ClusterNodeStats is one node's view of the run. Every field is
// written only by that node's partition, which is what makes the
// aggregate deterministic at any worker width.
type ClusterNodeStats struct {
	Attempts     uint64   `json:"attempts"`      // CAS probes issued
	Acquires     uint64   `json:"acquires"`      // successful acquires completed
	Denies       uint64   `json:"denies"`        // probes that lost
	RemoteDenies uint64   `json:"remote_denies"` // lost to a holder on another node
	GlobalMsgs   uint64   `json:"global_msgs"`   // interconnect messages sent
	BackoffTime  sim.Time `json:"backoff_ns"`    // total time spent backed off
}

// ClusterResult is the merged outcome of a cluster run.
type ClusterResult struct {
	Policy   ClusterPolicy      `json:"policy"`
	Nodes    []ClusterNodeStats `json:"nodes"`
	Elapsed  sim.Time           `json:"elapsed_ns"`
	Workers  int                `json:"workers"`
	Acquires uint64             `json:"acquires"`
	Attempts uint64             `json:"attempts"`
	Global   uint64             `json:"global_msgs"`
}

// GlobalPerAcquire is the run's headline traffic metric (cf. Table 2).
func (r ClusterResult) GlobalPerAcquire() float64 {
	if r.Acquires == 0 {
		return 0
	}
	return float64(r.Global) / float64(r.Acquires)
}

// Fairness returns min/max completed acquires across nodes (1 = fully
// fair, 0 = some node starved), the cluster-scale analogue of Fig 8.
func (r ClusterResult) Fairness() float64 {
	var min, max uint64
	for i, n := range r.Nodes {
		if i == 0 || n.Acquires < min {
			min = n.Acquires
		}
		if n.Acquires > max {
			max = n.Acquires
		}
	}
	if max == 0 {
		return 0
	}
	return float64(min) / float64(max)
}

// clusterCPU is one contending CPU's state machine as its own node sees
// it; all of its events run on the node's partition except decide, which
// the home's runs and which touches nothing here.
type clusterCPU struct {
	node     int
	id       int // cpu index within the node
	attempts int // consecutive failed probes (backoff exponent)
	done     int // completed acquire/release pairs

	// Steps of the state machine, bound once at construction: scheduling
	// one allocates nothing.
	attempt, decide, held func()
}

// clusterNode is one partition's state: its CPUs, RNG stream and stats.
type clusterNode struct {
	part *sim.Part
	rng  *sim.RNG
	st   ClusterNodeStats
	cpus []clusterCPU
}

// clusterLock is the lock home's directory word, owned by partition
// home. owner encodes the holding CPU as node*CPUsPerNode+id, -1 free.
// A run with Iters set terminates by drain: once every CPU has
// completed its iterations no new events are scheduled and Run returns
// with the event set empty, so no grant or release is ever cut off
// mid-flight.
type clusterLock struct {
	owner     int
	ownerNode int
}

// RunCluster executes one cluster simulation on workers PDES workers
// and returns the merged result. The result is byte-identical for any
// workers value (including 1); workers only changes wall-clock time.
func RunCluster(cfg ClusterConfig, workers int) ClusterResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	const home = 0
	lookahead := cfg.Lat.MinCrossNodeFlight()
	eng := sim.NewParEngine(cfg.Nodes, workers, lookahead)
	if cfg.TimeLimit > 0 {
		eng.SetLimit(cfg.TimeLimit)
	}
	nodes := make([]*clusterNode, cfg.Nodes)
	for i := range nodes {
		nodes[i] = &clusterNode{
			part: eng.Part(i),
			rng:  sim.NewRNG(sim.PartitionSeed(cfg.Seed, i)),
			cpus: make([]clusterCPU, cfg.CPUsPerNode),
		}
		for c := range nodes[i].cpus {
			nodes[i].cpus[c] = clusterCPU{node: i, id: c}
		}
	}
	lock := &clusterLock{owner: -1, ownerNode: -1}
	unit := cfg.backoffUnit()
	localHalf := cfg.Lat.C2CLocal/2 + 1
	// toHome[i] is the one-way flight between node i and the lock home.
	toHome := make([]sim.Time, cfg.Nodes)
	for i := range toHome {
		toHome[i] = cfg.flight(i, home)
	}

	// The state machine below runs entirely in event context. Requests,
	// replies and releases between a CPU's node and the lock home are
	// sim.Part.Send messages when the nodes differ (each counted as one
	// interconnect crossing) and plain intra-partition events when the
	// CPU lives on the home node — the cluster-scale analogue of the
	// local/global transaction split in Stats.
	release := func() { // runs on the home partition
		lock.owner = -1
		lock.ownerNode = -1
	}
	think := func(n *clusterNode, c *clusterCPU) {
		n.part.Schedule(1+n.rng.Exp(cfg.Think+1), c.attempt)
	}
	// toHomePart carries fn from c's node to the home directory.
	toHomePart := func(n *clusterNode, c *clusterCPU, fn func()) {
		if c.node == home {
			n.part.Schedule(localHalf, fn)
			return
		}
		n.st.GlobalMsgs++
		n.part.Send(home, toHome[c.node], fn)
	}
	// denied backs the CPU off after a probe lost; remote says the holder
	// was on another node.
	denied := func(n *clusterNode, c *clusterCPU, remote bool) { // requester partition
		n.st.Denies++
		if remote {
			n.st.RemoteDenies++
		}
		c.attempts++
		shift := c.attempts - 1
		if shift > 16 {
			shift = 16
		}
		units := cfg.Base << uint(shift)
		capUnits := cfg.Cap
		if cfg.policy() == ClusterHBO && remote {
			capUnits = cfg.remoteCap()
		}
		if units > capUnits {
			units = capUnits
		}
		span := sim.Time(units) * unit
		delay := span/2 + 1 + n.rng.Timen(span/2+1)
		n.st.BackoffTime += delay
		n.part.Schedule(delay, c.attempt)
	}
	h := nodes[home]
	for _, n := range nodes {
		for i := range n.cpus {
			c := &n.cpus[i]
			c.attempt = func() {
				n.st.Attempts++
				toHomePart(n, c, c.decide)
			}
			// The home's verdict travels as its choice among three replies,
			// inside the message, and decide works from its own copy of
			// what it must know of the requester: the requester's partition
			// reads nothing the home has written and the home, which fires
			// a third of all events, nothing the requester writes, so a
			// probe crosses between two cores' caches in the outboxes and
			// nowhere else.
			node, owner := c.node, c.node*cfg.CPUsPerNode+c.id
			won := func() { // requester partition, like the other two
				n.st.Acquires++
				c.attempts = 0
				c.done++
				// Hold the critical section; held hands the release back
				// to the home directory.
				n.part.Schedule(cfg.Hold+1, c.held)
			}
			lostNear := func() { denied(n, c, false) }
			lostFar := func() { denied(n, c, true) }
			c.decide = func() { // runs on the home partition
				reply := won
				switch {
				case lock.owner < 0:
					lock.owner = owner
					lock.ownerNode = node
				case lock.ownerNode != node:
					reply = lostFar
				default:
					reply = lostNear
				}
				if node == home {
					// Local probe: the reply is the second half of the
					// local round trip.
					h.part.Schedule(localHalf, reply)
				} else {
					h.st.GlobalMsgs++
					h.part.Send(node, toHome[node], reply)
				}
			}
			c.held = func() {
				toHomePart(n, c, release)
				if cfg.Iters < 1 || c.done < cfg.Iters {
					think(n, c)
				}
			}
			think(n, c)
		}
	}
	eng.Run()
	eng.Shutdown()

	res := ClusterResult{Policy: cfg.policy(), Workers: workers, Elapsed: eng.Now()}
	for _, n := range nodes {
		res.Nodes = append(res.Nodes, n.st)
		res.Acquires += n.st.Acquires
		res.Attempts += n.st.Attempts
		res.Global += n.st.GlobalMsgs
	}
	return res
}
