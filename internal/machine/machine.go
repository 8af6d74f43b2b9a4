package machine

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Addr identifies one word of simulated shared memory. By default every
// word lives on its own cache line (the paper allocates each lock on a
// private line); Config.WordsPerLine > 1 makes words share lines, for
// collocation and false-sharing studies. Addr 0 is reserved as a nil
// pointer value for queue-lock links.
type Addr uint32

// NilAddr is never returned by Alloc; queue locks use it as a null link.
const NilAddr Addr = 0

type lineState uint8

const (
	stateUncached lineState = iota
	stateShared
	stateModified
)

// sharerSet is a bitmap over CPU ids.
type sharerSet uint64

func (s sharerSet) has(cpu int) bool { return s&(1<<uint(cpu)) != 0 }
func (s *sharerSet) add(cpu int)     { *s |= 1 << uint(cpu) }
func (s *sharerSet) remove(cpu int)  { *s &^= 1 << uint(cpu) }
func (s sharerSet) empty() bool      { return s == 0 }
func (s sharerSet) count() int {
	n := 0
	for v := uint64(s); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// lineTraffic attributes coherence traffic to one cache line, so runs
// can split lock-line vs data-line transactions the way the paper's
// Tables 2 and 6 attribute traffic per lock.
type lineTraffic struct {
	misses    uint64 // read/write misses and upgrades served for this line
	invals    uint64 // remote-node invalidation messages
	transfers uint64 // cache-to-cache data transfers
	local     uint64 // bus transactions at any node (matches Stats.Local)
	global    uint64 // interconnect crossings (matches Stats.Global)
}

// line is the part of a directory entry every access reads: 32 bytes
// the collector never scans, and all an untouched line costs.
type line struct {
	// busyUntil serializes ownership/data transfers of this line: a
	// cache line can only move between caches one transfer at a time,
	// so a burst of misses (the test&set storm after a release) queues.
	// This serialization is what makes TATAS collapse under contention.
	busyUntil sim.Time
	sharers   sharerSet
	cold      uint32 // index into Machine.cold; 0 = never missed
	owner     int32  // cpu id when stateModified
	home      int32  // home node of the backing memory
	state     lineState
}

// coldLine is what only a miss or a park needs, created by touch: an
// application declares thousands of locks and hammers a handful.
type coldLine struct {
	index   int     // of the line in Machine.lines
	waiters []*Proc // procs parked in SpinUntil on this line
	traf    lineTraffic
}

// Stats accumulates coherence-traffic counters. Local transactions are
// counted per node (any bus transaction at that node); transactions that
// cross the interconnect also count as one global transaction, matching
// how the paper's Tables 2 and 6 report "local" and "global" traffic.
type Stats struct {
	Local  []uint64 // indexed by node
	Global uint64
}

// TotalLocal sums the per-node local counters.
func (s Stats) TotalLocal() uint64 {
	var t uint64
	for _, v := range s.Local {
		t += v
	}
	return t
}

// Sub returns s - o (counter deltas between two snapshots).
func (s Stats) Sub(o Stats) Stats {
	d := Stats{Local: make([]uint64, len(s.Local)), Global: s.Global - o.Global}
	for i := range s.Local {
		d.Local[i] = s.Local[i] - o.Local[i]
	}
	return d
}

// Machine is a simulated NUCA multiprocessor. Construct with New, allocate
// shared memory with Alloc, start programs with Spawn, then call Run.
type Machine struct {
	cfg   Config
	eng   *sim.Engine
	rng   *sim.RNG
	arena                 // words and lines
	cold  []coldLine      // index 0 reserved: line.cold == 0 means none
	buses []*sim.Resource // one per node
	link  *sim.Resource

	stats          Stats
	labels         map[int]string // line index -> caller-supplied label
	procs          []*Proc
	active         int // procs still running
	preemptedUntil []sim.Time
	probeFailure   error // first violation latched by the invariant probes
	// faults is nil unless a fault class is enabled, so the fault-free
	// fast paths stay branch-one-nil-check cheap and byte-identical.
	faults *fault.Injector
}

// New builds a machine from cfg. It panics on an invalid configuration
// (machine shape is programmer input, not runtime data).
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.WordsPerLine = max(cfg.WordsPerLine, 1) // 0 means 1
	eng := sim.NewEngine()
	if cfg.TimeLimit > 0 {
		eng.SetLimit(cfg.TimeLimit)
	}
	if cfg.TieBreakSeed != 0 {
		eng.Perturb(cfg.TieBreakSeed)
	}
	a := arenaPool.Get().(*arena)
	m := &Machine{
		cfg:            cfg,
		eng:            eng,
		rng:            sim.NewRNG(cfg.Seed),
		arena:          arena{extend(a.words, 1), extend(a.lines, 1)}, // index 0 reserved (NilAddr)
		cold:           make([]coldLine, 1, 64),
		link:           sim.NewResource(eng, "link"),
		stats:          Stats{Local: make([]uint64, cfg.Nodes)},
		labels:         map[int]string{},
		preemptedUntil: make([]sim.Time, cfg.TotalCPUs()),
	}
	for n := 0; n < cfg.Nodes; n++ {
		m.buses = append(m.buses, sim.NewResource(eng, fmt.Sprintf("bus%d", n)))
	}
	if cfg.Preempt.Enabled {
		m.schedulePreempt()
	}
	if cfg.Fault.Enabled() {
		m.faults = fault.NewInjector(cfg.Fault, cfg.Nodes)
	}
	return m
}

// arena is a machine's word and line storage, all zero.
type arena struct {
	words []uint64
	lines []line
}

// arenaPool recycles arenas across machines, as sim's heapPool does event
// heaps: a sweep of application cells would otherwise fault in, clear
// and double its way up to the same megabytes in every cell.
var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// Release hands the machine's memory to the next New. It is optional (an
// unreleased machine's arena goes to the collector with it) and final:
// the machine must not be used afterwards (an access panics).
func (m *Machine) Release() {
	clear(m.words)
	clear(m.lines)
	arenaPool.Put(&arena{m.words[:0], m.lines[:0]})
	m.arena, m.cold = arena{}, nil
}

// FaultStats returns the fault-injection counts observed so far (zero
// when no fault class is enabled).
func (m *Machine) FaultStats() fault.Stats {
	if m.faults == nil {
		return fault.Stats{}
	}
	return m.faults.Stats()
}

// faultLatency scales a transfer latency touching nodes a and b by the
// strongest active spike window among them.
func (m *Machine) faultLatency(d sim.Time, a, b int) sim.Time {
	s := m.faults.LatencyScale(m.eng.Now(), a)
	if a != b {
		if s2 := m.faults.LatencyScale(m.eng.Now(), b); s2 > s {
			s = s2
		}
	}
	if s <= 1 {
		return d
	}
	return sim.Time(float64(d) * s)
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the simulated clock.
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// RNG returns the machine's deterministic random source. Workloads share
// it so a single seed reproduces an entire experiment.
func (m *Machine) RNG() *sim.RNG { return m.rng }

// Alloc reserves words of shared memory homed in the given node and
// returns the address of the first word, on a line boundary: separate
// allocations never share a line (collocation is one multi-word Alloc).
func (m *Machine) Alloc(home, words int) Addr {
	return m.alloc(words, func(int) int { return home })
}

// AllocLines is Alloc(home(0), 1) ... Alloc(home(n-1), 1) in one step: a
// one-word Alloc lands on the next line boundary, so element i is the
// word at base + i*WordsPerLine, alone on a line homed at home(i).
func (m *Machine) AllocLines(n int, home func(i int) int) Addr {
	return m.alloc((n-1)*m.cfg.WordsPerLine+1, home)
}

// alloc pads the arena to a line boundary and appends words zero words
// and the lines that cover them, the i-th new line homed at home(i).
func (m *Machine) alloc(words int, home func(i int) int) Addr {
	if words <= 0 {
		panic("machine: Alloc of non-positive size")
	}
	wpl := m.cfg.WordsPerLine
	base := (len(m.words) + wpl - 1) / wpl * wpl
	first := len(m.lines)
	m.words = extend(m.words, base+words)
	m.lines = extend(m.lines, (base+words+wpl-1)/wpl)
	for i := first; i < len(m.lines); i++ {
		h := home(i - first)
		if h < 0 || h >= m.cfg.Nodes {
			panic(fmt.Sprintf("machine: Alloc home node %d out of range", h))
		}
		m.lines[i].home = int32(h)
	}
	return Addr(base)
}

// extend returns s lengthened to n elements, the new ones zero: capacity
// beyond len is zero from make on and s never shrinks, so in place it is
// a reslice. A move at least doubles (append grows large slices by 1/4)
// and starts at 1024.
func extend[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	g := make([]T, n, max(n, 2*cap(s), 1024))
	copy(g, s)
	return g
}

// lineOf returns the cache-line metadata covering address a.
func (m *Machine) lineOf(a Addr) *line {
	return &m.lines[int(a)/m.cfg.WordsPerLine]
}

// Peek reads a word without simulating any cost or coherence action.
// Intended for workload setup and result collection.
func (m *Machine) Peek(a Addr) uint64 { return m.words[a] }

// Poke writes a word without cost; the line is left uncached so the next
// access pays a memory fetch. Intended for workload setup.
func (m *Machine) Poke(a Addr, v uint64) {
	m.words[a] = v
	l := m.lineOf(a)
	l.state = stateUncached
	l.sharers = 0
}

// SeedOwner places a's line dirty in cpu's cache, as if cpu had just
// written v. Used by the uncontested-latency probe to set up the
// "previous owner" scenarios of Table 1.
func (m *Machine) SeedOwner(a Addr, cpu int, v uint64) {
	m.words[a] = v
	l := m.lineOf(a)
	l.state = stateModified
	l.owner = int32(cpu)
	l.sharers = 0
	m.touch(l, a) // so CheckInvariants sees the seeded owner
}

// NodeOf maps a cpu id to its node.
func (m *Machine) NodeOf(cpu int) int { return cpu / m.cfg.CPUsPerNode }

// ClusterOf maps a node to its cluster (the node itself on flat
// machines).
func (m *Machine) ClusterOf(node int) int {
	if m.cfg.ClusterSize <= 1 {
		return node
	}
	return node / m.cfg.ClusterSize
}

// Distance classifies how far apart two nodes are: 0 same node, 1 same
// cluster (or any other node on a flat machine), 2 across clusters.
func (m *Machine) Distance(a, b int) int {
	switch {
	case a == b:
		return 0
	case m.ClusterOf(a) == m.ClusterOf(b):
		return 1
	default:
		if m.cfg.ClusterSize <= 1 {
			return 1
		}
		return 2
	}
}

// c2cLatency returns the cache-to-cache cost between two nodes.
func (m *Machine) c2cLatency(a, b int) sim.Time {
	switch m.Distance(a, b) {
	case 0:
		return m.cfg.Lat.C2CLocal
	case 1:
		return m.cfg.Lat.C2CRemote
	default:
		if m.cfg.Lat.C2CFar > 0 {
			return m.cfg.Lat.C2CFar
		}
		return m.cfg.Lat.C2CRemote
	}
}

// memLatency returns the memory-fetch cost from node a to memory homed
// in node b.
func (m *Machine) memLatency(a, b int) sim.Time {
	switch m.Distance(a, b) {
	case 0:
		return m.cfg.Lat.MemLocal
	case 1:
		return m.cfg.Lat.MemRemote
	default:
		if m.cfg.Lat.MemFar > 0 {
			return m.cfg.Lat.MemFar
		}
		return m.cfg.Lat.MemRemote
	}
}

// Stats returns a copy of the current traffic counters.
func (m *Machine) Stats() Stats {
	c := Stats{Local: make([]uint64, len(m.stats.Local)), Global: m.stats.Global}
	copy(c.Local, m.stats.Local)
	return c
}

// ResetStats zeroes the traffic counters, aggregate and per-line
// (e.g. after a warmup phase).
func (m *Machine) ResetStats() {
	clear(m.stats.Local)
	m.stats.Global = 0
	for i := range m.cold {
		m.cold[i].traf = lineTraffic{}
	}
}

// touch returns the cold part of a's line l, created at its first miss
// or park. The table moves when it grows: hold no *coldLine across a Sleep.
func (m *Machine) touch(l *line, a Addr) *coldLine {
	if l.cold == 0 {
		l.cold = uint32(len(m.cold))
		m.cold = append(m.cold, coldLine{index: int(a) / m.cfg.WordsPerLine})
	}
	return &m.cold[l.cold]
}

// countLocal records one bus transaction at node for c's line, in both
// the aggregate and the per-line counters.
func (m *Machine) countLocal(c *coldLine, node int) {
	m.stats.Local[node]++
	c.traf.local++
}

// Label tags the cache line containing a so traffic reports can name it
// (e.g. "lock", "cs_data"). The last label for a line wins.
func (m *Machine) Label(a Addr, label string) {
	if a == NilAddr || int(a) >= len(m.words) {
		panic(fmt.Sprintf("machine: Label of invalid address %d", a))
	}
	m.labels[int(a)/m.cfg.WordsPerLine] = label
}

// LabelRange tags every cache line covering [base, base+words). Line 0
// (the reserved NilAddr region, which may pad the range's start when
// WordsPerLine > 1) is skipped.
func (m *Machine) LabelRange(base Addr, words int, label string) {
	wpl := m.cfg.WordsPerLine
	lo := int(base) / wpl
	hi := (int(base) + words - 1) / wpl
	if words <= 0 || hi >= len(m.lines) {
		panic(fmt.Sprintf("machine: LabelRange [%d,+%d) out of range", base, words))
	}
	if lo < 1 {
		lo = 1
	}
	for li := lo; li <= hi; li++ {
		m.labels[li] = label
	}
}

// AllocatedWords returns the current size of the shared-memory arena.
// Bracketing an allocation phase with it lets callers label everything
// that phase allocated (e.g. a lock's internal lines) via LabelRange.
func (m *Machine) AllocatedWords() int { return len(m.words) }

// LineStats is the coherence traffic attributed to one cache line.
type LineStats struct {
	Addr          Addr   `json:"addr"`
	Home          int    `json:"home"`
	Label         string `json:"label,omitempty"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
	Transfers     uint64 `json:"transfers"`
	Local         uint64 `json:"local"`
	Global        uint64 `json:"global"`
}

// Traffic returns the line's total transaction count (local + global),
// the hotness metric used by HotLines.
func (s LineStats) Traffic() uint64 { return s.Local + s.Global }

// LineStats returns per-line traffic for every line that saw any, in
// ascending address order (the cold table is in first-touch order). Addr
// is the line's first word.
func (m *Machine) LineStats() []LineStats {
	var out []LineStats
	wpl := m.cfg.WordsPerLine
	for _, c := range m.cold[1:] {
		t := c.traf
		if t == (lineTraffic{}) {
			continue
		}
		out = append(out, LineStats{
			Addr:          Addr(c.index * wpl),
			Home:          int(m.lines[c.index].home),
			Label:         m.labels[c.index],
			Misses:        t.misses,
			Invalidations: t.invals,
			Transfers:     t.transfers,
			Local:         t.local,
			Global:        t.global,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// HotLines returns the n busiest lines by total traffic, ties broken by
// address so a fixed seed yields a fixed report.
func (m *Machine) HotLines(n int) []LineStats {
	ls := m.LineStats() // by address, which a stable sort keeps among ties
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Traffic() > ls[j].Traffic() })
	if n > 0 && len(ls) > n {
		ls = ls[:n]
	}
	return ls
}

// BusUtilization returns per-node bus utilization so far.
func (m *Machine) BusUtilization() []float64 {
	u := make([]float64, len(m.buses))
	for i, b := range m.buses {
		u[i] = b.Utilization()
	}
	return u
}

// LinkUtilization returns global interconnect utilization so far.
func (m *Machine) LinkUtilization() float64 { return m.link.Utilization() }

// Spawn starts body on the given CPU. Multiple programs may share a CPU
// only if the caller multiplexes them itself; normally one program per
// CPU. Programs begin executing when Run is called.
func (m *Machine) Spawn(cpu int, body func(p *Proc)) *Proc {
	if cpu < 0 || cpu >= m.cfg.TotalCPUs() {
		panic(fmt.Sprintf("machine: Spawn cpu %d out of range", cpu))
	}
	p := &Proc{m: m, cpu: cpu, node: m.NodeOf(cpu)}
	m.active++
	p.proc = m.eng.Spawn(cpu, func(sp *sim.Process) {
		body(p)
		m.active--
	})
	m.procs = append(m.procs, p)
	return p
}

// Run executes all spawned programs to completion (or the time limit) and
// releases simulation resources. The machine can be inspected afterwards
// but not run again. A panic in a program leaves Run with the original
// value; the deferred Shutdown releases the other, still parked, programs
// while it unwinds.
func (m *Machine) Run() {
	defer m.eng.Shutdown()
	m.eng.Run()
}

// Aborted reports whether Run stopped at the time limit rather than by
// all programs finishing.
func (m *Machine) Aborted() bool { return m.active > 0 }

// schedulePreempt installs the OS-interference injector.
func (m *Machine) schedulePreempt() {
	pc := m.cfg.Preempt
	var tick func()
	tick = func() {
		if m.active == 0 || len(m.procs) == 0 {
			return // all programs done; let the simulation drain
		}
		// Steal a CPU that actually runs a program: daemons displace
		// workers only when the machine is fully subscribed, which is
		// the scenario the injector exists to model.
		cpu := m.procs[m.rng.Intn(len(m.procs))].cpu
		dur := m.rng.Exp(pc.MeanDuration)
		until := m.eng.Now() + dur
		if until > m.preemptedUntil[cpu] {
			m.preemptedUntil[cpu] = until
		}
		m.eng.Schedule(m.rng.Exp(pc.MeanInterval), tick)
	}
	m.eng.Schedule(m.rng.Exp(pc.MeanInterval), tick)
}

// wakeWaiters releases every proc parked in SpinUntil on l. Each waiter
// resumes after a randomized propagation delay (see Latencies.WakeJitter)
// and re-reads the line, which reproduces the refill burst that follows
// an invalidation with a hardware-realistic scramble of who gets there
// first.
func (m *Machine) wakeWaiters(l *line) {
	c := &m.cold[l.cold]
	ws := c.waiters
	c.waiters = c.waiters[:0]
	for _, w := range ws {
		var d sim.Time
		if j := m.cfg.Lat.WakeJitter; j > 0 {
			d = m.rng.Timen(j + 1)
		}
		w.proc.Wake(d)
	}
}

// cachedBy reports whether cpu currently holds a valid copy of l.
func (l *line) cachedBy(cpu int) bool {
	switch l.state {
	case stateModified:
		return int(l.owner) == cpu
	case stateShared:
		return l.sharers.has(cpu)
	}
	return false
}
