package obs

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// runContended drives iters acquire/release pairs per thread from one
// goroutine per thread, concurrently.
func runContended(l core.Lock, threads []*core.Thread, iters int) {
	var wg sync.WaitGroup
	for _, t := range threads {
		wg.Add(1)
		go func(t *core.Thread) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Acquire(t)
				l.Release(t)
			}
		}(t)
	}
	wg.Wait()
}

func snapshotBytes(t *testing.T, r *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInstrumentedExactCounts pins the exact-counting mode: with
// SampleEvery(1) every acquire is sampled and flushed, so the snapshot
// matches the activity precisely.
func TestInstrumentedExactCounts(t *testing.T) {
	r := NewRegistry()
	rt := core.NewRuntime(1, 1)
	l := r.Instrument(core.New("TATAS", rt, core.DefaultTuning()), "exact", WithSampleEvery(1))
	t0 := rt.RegisterThread(0)
	const n = 100
	for i := 0; i < n; i++ {
		l.Acquire(t0)
		l.Release(t0)
	}
	s := r.Snapshot()
	if len(s.Locks) != 1 {
		t.Fatalf("locks = %d", len(s.Locks))
	}
	ls := s.Locks[0]
	if ls.Name != "exact" || ls.Attempts != n || ls.Contended != 0 || ls.Aborts != 0 {
		t.Fatalf("snapshot = %+v", ls)
	}
	if ls.Wait.Count != n || ls.Hold.Count != n {
		t.Fatalf("sampled latencies: wait=%d hold=%d, want %d", ls.Wait.Count, ls.Hold.Count, n)
	}
	if len(ls.PerNode) != 1 || ls.PerNode[0].Attempts != n {
		t.Fatalf("per-node = %+v", ls.PerNode)
	}
}

// TestSamplingLagAndSync pins the flush quantization contract: with
// SampleEvery(k), uncontended acquires between samples stay in the
// thread cell until the next sample or an explicit Sync.
func TestSamplingLagAndSync(t *testing.T) {
	r := NewRegistry()
	rt := core.NewRuntime(1, 1)
	l := r.Instrument(core.New("TATAS", rt, core.DefaultTuning()), "lagged", WithSampleEvery(8))
	t0 := rt.RegisterThread(0)
	// First acquire is sampled (flushes); the next 7 are not.
	for i := 0; i < 5; i++ {
		l.Acquire(t0)
		l.Release(t0)
	}
	if got := r.Snapshot().Locks[0].Attempts; got != 1 {
		t.Fatalf("flushed attempts = %d, want 1 (only the sampled first)", got)
	}
	l.(InstrumentedLock).Sync(t0)
	if got := r.Snapshot().Locks[0].Attempts; got != 5 {
		t.Fatalf("after Sync attempts = %d, want 5", got)
	}
}

// TestSnapshotDeterminismAllLocks is the satellite determinism matrix:
// for every instrumented lock type, two snapshots with no intervening
// activity are byte-identical, and a delta equals the activity between
// its endpoints.
func TestSnapshotDeterminismAllLocks(t *testing.T) {
	const iters = 50
	for _, name := range core.AllNames() {
		t.Run(name, func(t *testing.T) {
			r := NewRegistry()
			rt := core.NewRuntimeHierarchical(2, 1, 4)
			l := r.Instrument(core.New(name, rt, core.DefaultTuning()), name, WithSampleEvery(1))
			threads := []*core.Thread{rt.RegisterThread(0), rt.RegisterThread(1)}

			runContended(l, threads, iters)
			s1 := r.Snapshot()
			b1 := snapshotBytes(t, r)
			b2 := snapshotBytes(t, r)
			if !bytes.Equal(b1, b2) {
				t.Fatalf("idle snapshots differ:\n%s\nvs\n%s", b1, b2)
			}

			runContended(l, threads, iters)
			s2 := r.Snapshot()
			d := s2.Delta(s1)
			if len(d.Locks) != 1 {
				t.Fatalf("delta locks = %d", len(d.Locks))
			}
			dl := d.Locks[0]
			want := uint64(len(threads) * iters)
			if dl.Attempts != want {
				t.Fatalf("delta attempts = %d, want %d", dl.Attempts, want)
			}
			if dl.Aborts != 0 {
				t.Fatalf("delta aborts = %d", dl.Aborts)
			}
			if dl.Wait.Count != want || dl.Hold.Count != want {
				t.Fatalf("delta sampled: wait=%d hold=%d, want %d", dl.Wait.Count, dl.Hold.Count, want)
			}
			var nodeSum uint64
			for _, nc := range dl.PerNode {
				nodeSum += nc.Attempts
			}
			if nodeSum != want {
				t.Fatalf("delta per-node sum = %d, want %d", nodeSum, want)
			}
			// A delta against the identical snapshot is all zeroes.
			z := s2.Delta(s2).Locks[0]
			if z.Attempts != 0 || z.Contended != 0 || z.SpinIterations != 0 ||
				z.Wait.Count != 0 || z.Hold.Count != 0 {
				t.Fatalf("self-delta nonzero: %+v", z)
			}
		})
	}
}

// TestShardedRecordVsMergeRace is the -race exercise promised by the
// stats.Histogram concurrency contract: one goroutine records latencies
// through the sampled sharded path while another merges shard
// histograms via Snapshot. The shard mutex must make this clean.
func TestShardedRecordVsMergeRace(t *testing.T) {
	r := NewRegistry()
	rt := core.NewRuntime(2, 2)
	l := r.Instrument(core.New("TATAS", rt, core.DefaultTuning()), "raced", WithSampleEvery(1))
	t0 := rt.RegisterThread(0)
	t1 := rt.RegisterThread(1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, th := range []*core.Thread{t0, t1} {
		wg.Add(1)
		go func(th *core.Thread) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.Acquire(th)
				l.Release(th)
			}
		}(th)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	var last Snapshot
	for time.Now().Before(deadline) {
		last = r.Snapshot()
	}
	close(stop)
	wg.Wait()
	final := r.Snapshot()
	if final.Locks[0].Attempts < last.Locks[0].Attempts {
		t.Fatalf("attempts went backwards: %d then %d",
			last.Locks[0].Attempts, final.Locks[0].Attempts)
	}
	if final.Locks[0].Attempts == 0 {
		t.Fatal("no activity recorded")
	}
}

// TestAbortsAndTries pins abort accounting for timed and non-blocking
// acquires: both count as attempts and aborts, and flush immediately.
func TestAbortsAndTries(t *testing.T) {
	r := NewRegistry()
	rt := core.NewRuntime(1, 2)
	l := r.Instrument(core.New("HBO", rt, core.DefaultTuning()), "hbo", WithSampleEvery(1))
	timed := l.(core.TimedLock)
	try := l.(core.TryLocker)
	t0 := rt.RegisterThread(0)
	t1 := rt.RegisterThread(0)

	l.Acquire(t0)
	if timed.AcquireFor(t1, time.Millisecond) {
		t.Fatal("timed acquire succeeded against a held lock")
	}
	if try.TryAcquire(t1) {
		t.Fatal("try succeeded against a held lock")
	}
	l.Release(t0)

	ls := r.Snapshot().Locks[0]
	if ls.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", ls.Attempts)
	}
	if ls.Aborts != 2 {
		t.Fatalf("aborts = %d, want 2", ls.Aborts)
	}
	if ls.Contended < 1 {
		t.Fatalf("contended = %d, want >= 1", ls.Contended)
	}
	// The successful holder's acquire+release still sampled cleanly.
	if ls.Hold.Count != 1 {
		t.Fatalf("hold samples = %d, want 1", ls.Hold.Count)
	}
}

// TestHandoffLocality drives a deterministic handoff sequence and
// checks the local/remote split.
func TestHandoffLocality(t *testing.T) {
	r := NewRegistry()
	rt := core.NewRuntime(2, 3)
	l := r.Instrument(core.New("TATAS", rt, core.DefaultTuning()), "handoff", WithSampleEvery(1))
	a := rt.RegisterThread(0)
	b := rt.RegisterThread(0)
	c := rt.RegisterThread(1)
	for _, th := range []*core.Thread{a, b, c, a} { // a->b local, b->c remote, c->a remote
		l.Acquire(th)
		l.Release(th)
	}
	ls := r.Snapshot().Locks[0]
	if ls.HandoffLocal != 1 || ls.HandoffRemote != 2 {
		t.Fatalf("handoffs local=%d remote=%d, want 1/2", ls.HandoffLocal, ls.HandoffRemote)
	}
	if got := ls.LocalityRatio(); got <= 0.33 || got >= 0.34 {
		t.Fatalf("locality ratio = %v", got)
	}
}

// TestRegistryNameDedup pins the collision policy.
func TestRegistryNameDedup(t *testing.T) {
	r := NewRegistry()
	rt := core.NewRuntime(1, 1)
	a := r.Instrument(core.New("TATAS", rt, core.DefaultTuning()), "dup")
	b := r.Instrument(core.New("TATAS", rt, core.DefaultTuning()), "dup")
	c := r.Instrument(core.New("TATAS", rt, core.DefaultTuning()), "dup")
	if a.Name() != "dup" || b.Name() != "dup#2" || c.Name() != "dup#3" {
		t.Fatalf("names = %q %q %q", a.Name(), b.Name(), c.Name())
	}
	if got := r.Names(); len(got) != 3 {
		t.Fatalf("registry names = %v", got)
	}
}

// TestWrapperPreservesCapabilities checks the wrapper picks the variant
// matching the underlying lock's interfaces.
func TestWrapperPreservesCapabilities(t *testing.T) {
	r := NewRegistry()
	rt := core.NewRuntime(1, 4)
	tatas := r.Instrument(core.New("TATAS", rt, core.DefaultTuning()), "cap-tatas")
	if _, ok := tatas.(core.TimedLock); !ok {
		t.Error("instrumented TATAS lost TimedLock")
	}
	if _, ok := tatas.(core.TryLocker); !ok {
		t.Error("instrumented TATAS lost TryLocker")
	}
	mcs := r.Instrument(core.New("MCS", rt, core.DefaultTuning()), "cap-mcs")
	if _, ok := mcs.(core.TimedLock); ok {
		t.Error("instrumented MCS gained TimedLock")
	}
	if _, ok := mcs.(core.TryLocker); !ok {
		t.Error("instrumented MCS lost TryLocker")
	}
	clh := r.Instrument(core.New("CLH", rt, core.DefaultTuning()), "cap-clh")
	if _, ok := clh.(core.TryLocker); ok {
		t.Error("instrumented CLH gained TryLocker")
	}
	il := clh.(InstrumentedLock)
	if il.Unwrap().Name() != "CLH" || clh.Name() != "cap-clh" {
		t.Errorf("names: wrapper %q inner %q", clh.Name(), il.Unwrap().Name())
	}
	if il.Metrics() == nil || r.Lookup("cap-clh") != il.Metrics() {
		t.Error("metrics lookup mismatch")
	}
}

// fakeLock is a probe-firing stub: Acquire "contends" on demand, which
// lets the test drive the probe path deterministically.
type fakeLock struct {
	p       core.Probe
	contend bool
}

func (f *fakeLock) Name() string           { return "FAKE" }
func (f *fakeLock) SetProbe(p core.Probe)  { f.p = p }
func (f *fakeLock) Release(t *core.Thread) {}
func (f *fakeLock) Acquire(t *core.Thread) {
	if f.contend && f.p != nil {
		f.p.Contended(t)
		f.p.Contended(t) // multi-stage locks may fire twice; must dedup
		f.p.Spun(t, 7)
	}
}

// TestContendedProbeCounts checks that contended acquires count once
// (despite repeated probe fires) and flush via the contention path even
// when the acquire is not latency-sampled.
func TestContendedProbeCounts(t *testing.T) {
	r := NewRegistry()
	rt := core.NewRuntime(1, 1)
	f := &fakeLock{}
	// Huge sample interval: after the first acquire, only the probe's
	// in-slow-path flag can trigger a flush.
	l := r.Instrument(f, "probe", WithSampleEvery(1<<20))
	t0 := rt.RegisterThread(0)

	l.Acquire(t0) // sampled first acquire, flushes
	l.Release(t0)
	f.contend = true
	l.Acquire(t0) // unsampled, but contended → counts and flushes
	l.Release(t0)
	f.contend = false
	l.Acquire(t0) // unsampled, uncontended → stays in the cell
	l.Release(t0)

	ls := r.Snapshot().Locks[0]
	if ls.Contended != 1 {
		t.Fatalf("contended = %d, want 1 (deduped)", ls.Contended)
	}
	if ls.SpinIterations != 7 {
		t.Fatalf("spin iterations = %d, want 7", ls.SpinIterations)
	}
	if ls.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (third acquire unflushed)", ls.Attempts)
	}
}
