package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/lockserv"
	"repro/internal/obs"
)

const (
	coreKeys = 4096            // keys per session, disjoint between sessions
	coreTTL  = 5 * time.Second // nothing expires inside a run
	// restartOps is the length of the fixed script whose WAL the restart
	// measurement recovers from; about 60 000 frames.
	restartOps = 80_000
)

// coreRig is the service as hbolockd wires it, without the HTTP server:
// a real Store, an access log file, an obs.Registry, the wall clock,
// 2 tenants × 4 shards arbitrated by HBO, and the 250 ms sweeper.
type coreRig struct {
	dir     string
	store   *lockserv.Store
	logFile *os.File
	svc     *lockserv.Service
	stop    chan struct{}
	swept   chan struct{}
}

// rigOptions are the parts the traced run swaps out or wraps.
type rigOptions struct {
	noStore       bool
	noAccessLog   bool
	snapshotEvery int
	wrapWAL       func(io.Writer) io.Writer
	wrapLog       func(io.Writer) io.Writer
}

func newCoreRig(dir string, opt rigOptions) (*coreRig, error) {
	r := &coreRig{dir: dir, stop: make(chan struct{}), swept: make(chan struct{})}
	cfg := lockserv.Config{
		Tenants: tenantNames[:], Shards: 4, Lock: "HBO", DefaultTTL: coreTTL,
		Clock: lockserv.RealClock(), Registry: obs.NewRegistry(),
	}
	if !opt.noStore {
		every := opt.snapshotEvery
		if every == 0 {
			every = 65536
		}
		st, err := lockserv.OpenStore(filepath.Join(dir, "data"),
			lockserv.StoreOptions{SnapshotEvery: every, WrapWAL: opt.wrapWAL})
		if err != nil {
			return nil, err
		}
		r.store, cfg.Store = st, st
	}
	if !opt.noAccessLog {
		f, err := os.OpenFile(filepath.Join(dir, "access.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		r.logFile = f
		cfg.AccessLog = f
		if opt.wrapLog != nil {
			cfg.AccessLog = opt.wrapLog(f)
		}
	}
	svc, err := lockserv.New(cfg)
	if err != nil {
		return nil, err
	}
	r.svc = svc
	go func() {
		defer close(r.swept)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				svc.SweepDue()
				svc.RefreshAffinity()
			}
		}
	}()
	return r, nil
}

// close shuts the rig down the way the daemon's clean exit does: stop
// the sweeper, flush the access log, fsync and close the store.
func (r *coreRig) close() error {
	close(r.stop)
	<-r.swept
	err := r.svc.Close()
	if r.store != nil {
		if e := r.store.Sync(); e != nil && err == nil {
			err = e
		}
		if e := r.store.Close(); e != nil && err == nil {
			err = e
		}
	}
	if r.logFile != nil {
		if e := r.logFile.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// coreSession is one closed-loop caller of the Service methods.
type coreSession struct {
	owner  string
	script []decision
	keys   []string
	pos    int

	holding   bool
	heldKey   int
	heldTen   int
	heldToken uint64

	last     [2][]uint64 // newest token seen per tenant and key
	ops      int64
	frames   int64 // operations that must have appended a WAL frame
	failed   int64
	firstErr error
}

func newCoreSession(seed uint64, i int) *coreSession {
	s := &coreSession{
		owner:  fmt.Sprintf("session-%d", i),
		script: newScript(seed, i, coreKeys),
		keys:   keyNames(fmt.Sprintf("s%d/k", i), coreKeys),
	}
	s.last[0] = make([]uint64, coreKeys)
	s.last[1] = make([]uint64, coreKeys)
	return s
}

func (s *coreSession) fail(format string, args ...any) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = fmt.Errorf(format, args...)
	}
}

// step performs the session's next operation against svc.
func (s *coreSession) step(svc *lockserv.Service) {
	d := s.script[s.pos&(scriptLen-1)]
	s.pos++
	s.ops++
	kind := d.next(s.holding)
	ten, key := d.tenant(), d.key()
	if s.holding {
		ten, key = s.heldTen, s.heldKey
	}
	tenant, name := tenantNames[ten], s.keys[key]
	switch kind {
	case opAcquire:
		dec, err := svc.Acquire(tenant, name, s.owner, coreTTL)
		switch {
		case err != nil || dec.Outcome != lockserv.WireGranted:
			s.fail("acquire %s/%s: %v %s", tenant, name, err, dec.Outcome)
		case dec.Token <= s.last[ten][key]:
			s.fail("acquire %s/%s: token %d after %d", tenant, name, dec.Token, s.last[ten][key])
		default:
			s.last[ten][key] = dec.Token
			s.holding, s.heldTen, s.heldKey, s.heldToken = true, ten, key, dec.Token
			s.frames++
		}
	case opRenew:
		dec, err := svc.Renew(tenant, name, s.owner, s.heldToken, coreTTL)
		if err != nil || dec.Outcome != lockserv.WireRenewed {
			s.fail("renew %s/%s: %v %s", tenant, name, err, dec.Outcome)
			s.holding = false
		} else {
			s.frames++
		}
	case opRelease:
		dec, err := svc.Release(tenant, name, s.owner, s.heldToken)
		if err != nil || dec.Outcome != lockserv.WireReleased {
			s.fail("release %s/%s: %v %s", tenant, name, err, dec.Outcome)
		} else {
			s.frames++
		}
		s.holding = false
	case opInspect:
		dec, err := svc.Inspect(tenant, name)
		want := lockserv.WireFree
		if s.holding {
			want = lockserv.WireHeld
		}
		if err != nil || dec.Outcome != want {
			s.fail("inspect %s/%s: %v %s, want %s", tenant, name, err, dec.Outcome, want)
		}
	}
}

// run performs n operations.
func (s *coreSession) run(svc *lockserv.Service, n int) {
	for i := 0; i < n; i++ {
		s.step(svc)
	}
}

// inspects performs n Inspect calls on the keys the script names next:
// the read beside the writes. It takes the shard lock and appends
// nothing. A session holds at most one lease, so every other key of its
// range is free.
func (s *coreSession) inspects(svc *lockserv.Service, n int) {
	for i := 0; i < n; i++ {
		d := s.script[s.pos&(scriptLen-1)]
		s.pos++
		s.ops++
		ten, key := d.tenant(), d.key()
		want := lockserv.WireFree
		if s.holding && ten == s.heldTen && key == s.heldKey {
			want = lockserv.WireHeld
		}
		dec, err := svc.Inspect(tenantNames[ten], s.keys[key])
		if err != nil || dec.Outcome != want {
			s.fail("inspect %s/%s: %v %s, want %s", tenantNames[ten], s.keys[key], err, dec.Outcome, want)
		}
	}
}

// runSlice has every session perform n operations concurrently and
// returns the elapsed seconds.
func runSlice(svc *lockserv.Service, sessions []*coreSession, n int) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for _, s := range sessions {
		wg.Add(1)
		go func(s *coreSession) {
			defer wg.Done()
			s.run(svc, n)
		}(s)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// verifyCore checks the run from the outside: the access log replays
// without a fencing violation, and reopening the store read-only
// recovers exactly the fencing counters and live leases the sessions
// saw.
func verifyCore(dir string, sessions []*coreSession) error {
	f, err := os.Open(filepath.Join(dir, "access.jsonl"))
	if err != nil {
		return err
	}
	_, err = lockserv.VerifyAccessLog(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("access log: %w", err)
	}
	st, err := lockserv.OpenStore(filepath.Join(dir, "data"), lockserv.StoreOptions{ReadOnly: true})
	if err != nil {
		return err
	}
	defer st.Close()
	leases, tokens := st.Restored()
	live := map[string]uint64{}
	for _, l := range leases {
		live[l.Tenant+"/"+l.Key] = l.Token
	}
	held := 0
	for _, s := range sessions {
		for ten := range s.last {
			for k, want := range s.last[ten] {
				if got := tokens[tenantNames[ten]][s.keys[k]]; got != want {
					return fmt.Errorf("store recovered token %d for %s/%s, session saw %d", got, tenantNames[ten], s.keys[k], want)
				}
			}
		}
		if s.holding {
			held++
			id := tenantNames[s.heldTen] + "/" + s.keys[s.heldKey]
			if live[id] != s.heldToken {
				return fmt.Errorf("store recovered live token %d for %s, session holds %d", live[id], id, s.heldToken)
			}
		}
	}
	if len(leases) != held {
		return fmt.Errorf("store recovered %d live leases, sessions hold %d", len(leases), held)
	}
	return nil
}

// buildRestartDir writes the WAL of a fixed script into dir: one
// session, restartOps operations, no snapshot. Restarting from it is
// the same work on every run and every commit.
func buildRestartDir(dir string, seed uint64) error {
	rig, err := newCoreRig(dir, rigOptions{snapshotEvery: 1 << 30})
	if err != nil {
		return err
	}
	s := newCoreSession(seed, 0)
	s.run(rig.svc, restartOps)
	if err := rig.close(); err != nil {
		return err
	}
	return s.firstErr
}

// copyDir copies the flat directory src/data to dst/data and syncs the
// copies, so that the fsync of whoever opens them next does not pay for
// writing the copy out.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(filepath.Join(dst, "data"), 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(filepath.Join(src, "data"))
	if err != nil {
		return err
	}
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(src, "data", ent.Name()))
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dst, "data", ent.Name()))
		if err != nil {
			return err
		}
		if _, err := f.Write(b); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runServeCore bypasses HTTP entirely, so store append, access-log
// write, the lease table and the shard lock are the whole cost: a WAL
// or access-log change moves this and is invisible over HTTP.
func runServeCore(e *env, o *outcome) error {
	// A slice is short (some 10 ms of writes, 2 ms of reads) so that the
	// slices a compaction's fsync or a collector cycle falls into are the
	// minority and the median sits among the undisturbed ones.
	sliceOps, warmOps, restartReps := 4_000, 2_000, 8
	if e.smoke {
		sliceOps, warmOps, restartReps = 500, 100, 2
	}

	// Set-up: directories, store, service, the sessions' scripts and key
	// strings, the fixed restart directory, and a warm-up slice.
	var rig *coreRig
	var sessions []*coreSession
	restartDir := filepath.Join(e.scratch, "restart")
	var setups []float64
	for i := 0; i < 3; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return err
			}
		}
		start := time.Now()
		dir := filepath.Join(e.scratch, fmt.Sprintf("core-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var err error
		if rig, err = newCoreRig(dir, rigOptions{}); err != nil {
			return err
		}
		sessions = sessions[:0]
		for s := 0; s < e.w; s++ {
			sessions = append(sessions, newCoreSession(e.seed, s))
		}
		os.RemoveAll(restartDir)
		if err := os.MkdirAll(restartDir, 0o755); err != nil {
			return err
		}
		if !e.smoke {
			if err := buildRestartDir(restartDir, e.seed); err != nil {
				return err
			}
		}
		runSlice(rig.svc, sessions, warmOps)
		setups = append(setups, time.Since(start).Seconds())
	}
	o.set("setup_s", "s", setups...)

	// ops_per_s: W closed-loop sessions on disjoint keys, the write path.
	// latency_us: one session inspecting its keys, the read path, which
	// touches far less memory than the writes and so depends far less on
	// what the host's other tenants do to the shared cache. The two take
	// turns slice by slice, so the reads find the table as the writes
	// leave it, and no clock is read inside a slice.
	var rates, inspect []float64
	passes(e.dur(0.45), func() float64 {
		secs := runSlice(rig.svc, sessions, sliceOps)
		rates = append(rates, float64(sliceOps*len(sessions))/secs)
		start := time.Now()
		sessions[0].inspects(rig.svc, sliceOps)
		read := time.Since(start).Seconds()
		inspect = append(inspect, read/float64(sliceOps)*1e6)
		return secs + read
	})
	o.set("ops_per_s", "1/s", rates...)
	o.set("latency_us", "us", inspect...)

	var frames int64
	var firstErr error
	for _, s := range sessions {
		o.Attempted += s.ops
		o.Failed += s.failed
		frames += s.frames
		if firstErr == nil {
			firstErr = s.firstErr
		}
	}
	o.verify("every operation got the answer its session expected", firstErr)

	seq := rig.store.Seq()
	if err := rig.close(); err != nil {
		return err
	}
	var frameErr error
	if int64(seq) != frames {
		frameErr = fmt.Errorf("store holds %d frames, sessions made %d transitions", seq, frames)
	}
	o.verify("one WAL frame per lease transition", frameErr)
	o.verify("access log verifies and the store recovers what the sessions saw", verifyCore(rig.dir, sessions))

	// wall_s: coming back. OpenStore replays the fixed WAL and
	// lockserv.New restores the leases and fencing counters from it.
	// The loop above left hundreds of megabytes of dirty log pages; write
	// them out now so the restarts' fsyncs do not queue behind them.
	syscall.Sync()
	var restarts []float64
	if e.smoke {
		restartDir = rig.dir
	}
	for i := 0; i < restartReps; i++ {
		dir := filepath.Join(e.scratch, fmt.Sprintf("restart-%d", i))
		if err := copyDir(restartDir, dir); err != nil {
			return err
		}
		start := time.Now()
		r, err := newCoreRig(dir, rigOptions{})
		if err != nil {
			return err
		}
		dec, err := r.svc.Inspect(tenantNames[0], "probe")
		restarts = append(restarts, time.Since(start).Seconds())
		if err != nil || dec.Outcome != lockserv.WireFree {
			return fmt.Errorf("restarted service: %v %s", err, dec.Outcome)
		}
		if err := r.close(); err != nil {
			return err
		}
		os.RemoveAll(dir)
	}
	o.set("wall_s", "s", restarts...)
	o.set("peak_rss_mb", "MB", peakRSSMB())
	return nil
}
