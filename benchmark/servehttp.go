package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/lockserv"
	"repro/internal/stats"
	"repro/lockclient"
)

const (
	httpKeys = 64                     // shared by every session, per tenant
	httpTTL  = 500 * time.Millisecond // short enough that an abandoned lease clears
	openRate = 2000.0                 // operations per second in the open phase
)

// children are the processes this program started and has not yet
// reaped; a fatal error or Ctrl-C kills them by pid.
var children struct {
	mu   sync.Mutex
	cmds map[*exec.Cmd]bool
}

func trackChild(c *exec.Cmd, on bool) {
	children.mu.Lock()
	defer children.mu.Unlock()
	if children.cmds == nil {
		children.cmds = map[*exec.Cmd]bool{}
	}
	if on {
		children.cmds[c] = true
	} else {
		delete(children.cmds, c)
	}
}

func stopChildren() {
	children.mu.Lock()
	defer children.mu.Unlock()
	for c := range children.cmds {
		if c.Process != nil {
			_ = c.Process.Kill()
			_, _ = c.Process.Wait()
		}
	}
	children.cmds = nil
}

// buildDaemon compiles the real hbolockd into dir.
func buildDaemon(e *env, dir string) (string, error) {
	bin := filepath.Join(dir, "hbolockd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/hbolockd")
	cmd.Dir = filepath.Join(e.root, "benchmark")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building hbolockd: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port by listening on
// port 0 and closing.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// daemon is one running hbolockd, in a process group of its own so a
// stray grandchild can be detected after it exits.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	dir    string
	stderr bytes.Buffer
}

func (d *daemon) accessLog() string { return filepath.Join(d.dir, "access.jsonl") }

// startDaemon starts bin on dir/data with the shipped defaults and
// waits until /v1/inspect answers.
func startDaemon(bin, dir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: fmt.Sprintf("127.0.0.1:%d", port), dir: dir}
	d.cmd = exec.Command(bin,
		"-addr", d.addr,
		"-data-dir", filepath.Join(dir, "data"),
		"-access-log", d.accessLog(),
		"-report", filepath.Join(dir, "report.json"))
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	trackChild(d.cmd, true)
	probe := lockclient.New(d.addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, _, err := probe.Inspect(ctx, tenantNames[0], "probe")
		cancel()
		if err == nil {
			return d, nil
		}
		if time.Now().After(deadline) {
			_, _ = d.stop()
			return nil, fmt.Errorf("hbolockd on %s not ready: %v\n%s", d.addr, err, d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM to the captured pid and requires a clean exit
// that leaves nothing behind in the daemon's process group. It returns
// the daemon's peak resident set in MB.
func (d *daemon) stop() (rssMB float64, err error) {
	pid := d.cmd.Process.Pid
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		err = errors.New("hbolockd did not exit within 15 s of SIGTERM")
	}
	trackChild(d.cmd, false)
	if err != nil {
		return 0, fmt.Errorf("hbolockd: %w\n%s", err, d.stderr.String())
	}
	if kerr := syscall.Kill(-pid, 0); kerr == nil {
		_ = syscall.Kill(-pid, syscall.SIGKILL)
		return 0, errors.New("hbolockd left a process behind in its group")
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
	}
	return rssMB, nil
}

// httpSession is one client of the daemon: its own lockclient over its
// own single connection.
type httpSession struct {
	c      *lockclient.Client
	script []decision
	pos    int
	keys   []string
	held   *lockclient.Lease
	last   [2][httpKeys]uint64

	ops, acquires, conflicts, stale, busy, failed int64
	firstErr                                      error
	lat                                           latencies // from send (closed) or from due time (open)
	late                                          []float64 // open loop: send time minus due time, ns
	// wrap, when set, runs each client call inside a span.
	wrap func(kind opKind, fn func())
}

func newHTTPSession(addr string, seed uint64, i int, keys []string, rt http.RoundTripper) *httpSession {
	tr := rt
	if tr == nil {
		tr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	}
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	return &httpSession{
		c: lockclient.New(addr,
			lockclient.WithOwner(fmt.Sprintf("session-%d", i)),
			lockclient.WithJitterSeed(seed+uint64(i)),
			lockclient.WithHTTPClient(hc)),
		script: newScript(seed, i, httpKeys),
		keys:   keys,
	}
}

func (s *httpSession) fail(format string, args ...any) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = fmt.Errorf(format, args...)
	}
}

// step performs the next operation. Latency is counted from due when
// it is set (open loop), from the send otherwise.
func (s *httpSession) step(ctx context.Context, due time.Time) {
	d := s.script[s.pos&(scriptLen-1)]
	s.pos++
	s.ops++
	kind := d.next(s.held != nil)
	ten, key := d.tenant(), d.key()
	from := due
	if from.IsZero() {
		from = time.Now()
	}
	call := func(fn func()) {
		if s.wrap != nil {
			s.wrap(kind, fn)
		} else {
			fn()
		}
	}
	switch kind {
	case opAcquire:
		s.acquires++
		var l *lockclient.Lease
		var err error
		call(func() { l, err = s.c.AcquireOnce(ctx, tenantNames[ten], s.keys[key], httpTTL) })
		var conflict *lockclient.ConflictError
		switch {
		case err == nil:
			// Fencing from the client's side: a key's tokens only grow.
			if l.Token <= s.last[ten][key] {
				s.fail("acquire %s/%s: token %d after %d", l.Tenant, l.Key, l.Token, s.last[ten][key])
			}
			s.last[ten][key] = l.Token
			s.held = l
		case errors.As(err, &conflict):
			s.conflicts++ // a correct answer, not a failure
		default:
			var refused *lockclient.RetryError
			if errors.As(err, &refused) {
				s.busy++
			}
			s.fail("acquire: %v", err)
		}
	case opRenew, opRelease:
		var err error
		if kind == opRenew {
			call(func() { err = s.c.Renew(ctx, s.held, httpTTL) })
		} else {
			call(func() { err = s.c.Release(ctx, s.held) })
		}
		switch {
		case err == nil:
		case errors.Is(err, lockclient.ErrStale):
			s.stale++ // the lease ran out first; also a correct answer
			s.held = nil
		default:
			s.fail("%s: %v", kind, err)
			s.held = nil
		}
		if kind == opRelease {
			s.held = nil
		}
	case opInspect:
		tenant, name := tenantNames[ten], s.keys[key]
		if s.held != nil {
			tenant, name = s.held.Tenant, s.held.Key
		}
		var err error
		call(func() { _, _, err = s.c.Inspect(ctx, tenant, name) })
		if err != nil {
			s.fail("inspect: %v", err)
		}
	}
	s.lat.add(kind, time.Since(from))
}

// closedLoop runs every session back to back for d and returns the
// completed-operation rate of each 200 ms window.
func closedLoop(sessions []*httpSession, d time.Duration) []float64 {
	ctx, cancel := context.WithTimeout(context.Background(), d+30*time.Second)
	defer cancel()
	var done atomic.Int64
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for _, s := range sessions {
		wg.Add(1)
		go func(s *httpSession) {
			defer wg.Done()
			for time.Now().Before(end) {
				s.step(ctx, time.Time{})
				done.Add(1)
			}
		}(s)
	}
	var rates []float64
	lastN, lastT := int64(0), time.Now()
	for time.Now().Before(end) {
		time.Sleep(200 * time.Millisecond)
		n, t := done.Load(), time.Now()
		rates = append(rates, float64(n-lastN)/t.Sub(lastT).Seconds())
		lastN, lastT = n, t
	}
	wg.Wait()
	return rates
}

// sleepUntil blocks in nanosleep(2) until t. time.Sleep will not do:
// an idle Go program's timers ride on epoll_wait's millisecond
// timeout, so it wakes up to a millisecond late, which at a
// millisecond between sends would make the generator the thing
// measured.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // a signal may end it early; the loop sleeps the rest
	}
}

// openLoop sends at a fixed total rate for d whatever the daemon does:
// each session has its own schedule of due times, sleeps until the next
// one, and if it is already past sends at once. It returns how late the
// last sends were, in seconds; a backlog that grows shows there.
func openLoop(sessions []*httpSession, rate float64, d time.Duration) (finalLate float64) {
	ctx, cancel := context.WithTimeout(context.Background(), d+30*time.Second)
	defer cancel()
	interval := time.Duration(float64(len(sessions)) / rate * float64(time.Second))
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *httpSession) {
			defer wg.Done()
			first := start.Add(interval * time.Duration(i) / time.Duration(len(sessions)))
			var late time.Duration
			for k := 0; ; k++ {
				due := first.Add(interval * time.Duration(k))
				if due.Sub(start) >= d {
					break
				}
				sleepUntil(due)
				late = time.Since(due)
				s.late = append(s.late, float64(late.Nanoseconds()))
				s.step(ctx, due)
			}
			mu.Lock()
			finalLate = max(finalLate, late.Seconds())
			mu.Unlock()
		}(i, s)
	}
	wg.Wait()
	return finalLate
}

// restartCycle starts the daemon on a copy of the fixed directory,
// waits for its first answer, has one session do its first operations,
// stops it, and returns the seconds that took. Copying is not timed.
//
// The operations are also what makes the SIGTERM safe: hbolockd answers
// requests a few instructions before it installs its signal handler, so
// a SIGTERM sent the instant the first answer arrives can kill it with
// the default action instead of draining it.
func restartCycle(bin, fixed, dir string, seed uint64, keys []string) (float64, error) {
	if err := copyDir(fixed, dir); err != nil {
		return 0, err
	}
	start := time.Now()
	d, err := startDaemon(bin, dir)
	if err != nil {
		return 0, err
	}
	s := newHTTPSession(d.addr, seed, 0, keys, nil)
	for i := 0; i < 50; i++ {
		s.step(context.Background(), time.Time{})
	}
	if s.firstErr != nil {
		_, _ = d.stop()
		return 0, s.firstErr
	}
	if _, err := d.stop(); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// runServeHTTP is the "serve a lease" path as users meet it: about
// 100 µs an operation of HTTP, JSON and scheduler against about 2 µs
// of service, so handler, client, connection handling and daemon wiring
// are the cost and the store is noise.
func runServeHTTP(e *env, o *outcome) error {
	warm, restartReps := 200, 8
	if e.smoke {
		warm, restartReps = 20, 1
	}
	keys := keyNames("shared/k", httpKeys)
	fixed := filepath.Join(e.scratch, "restart")

	var bin string
	var d *daemon
	var sessions []*httpSession
	var setups []float64
	reps := 3
	if e.smoke {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		dir := filepath.Join(e.scratch, fmt.Sprintf("http-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var err error
		if bin, err = buildDaemon(e, dir); err != nil {
			return err
		}
		os.RemoveAll(fixed)
		if err := os.MkdirAll(fixed, 0o755); err != nil {
			return err
		}
		if err := buildRestartDir(fixed, e.seed); err != nil {
			return err
		}
		if d, err = startDaemon(bin, dir); err != nil {
			return err
		}
		sessions = sessions[:0]
		for s := 0; s < e.w; s++ {
			sessions = append(sessions, newHTTPSession(d.addr, e.seed, s, keys, nil))
		}
		for _, s := range sessions {
			for k := 0; k < warm; k++ {
				s.step(context.Background(), time.Time{})
			}
			s.lat = latencies{}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.set("setup_s", "s", setups...)
	defer func() {
		if d != nil {
			_, _ = d.stop()
		}
	}()

	// Phase closed: capacity. W callers that each wait for their reply.
	closedDur, openDur, rate := e.dur(0.4), e.dur(0.3), openRate
	if e.smoke {
		rate = 200
	}
	rates := closedLoop(sessions, closedDur)
	o.set("ops_per_s", "1/s", rates...)
	var closedLat latencies
	for _, s := range sessions {
		closedLat.merge(&s.lat)
		s.lat = latencies{}
	}

	// Phase open: the latency independent callers see at a fixed rate,
	// each operation timed from the instant it was due.
	finalLate := openLoop(sessions, rate, openDur)
	var openLat latencies
	var late []float64
	var acquires, conflicts, stale int64
	var firstErr error
	for _, s := range sessions {
		openLat.merge(&s.lat)
		late = append(late, s.late...)
		o.Attempted += s.ops
		o.Failed += s.failed
		acquires += s.acquires
		conflicts += s.conflicts
		stale += s.stale
		if firstErr == nil {
			firstErr = s.firstErr
		}
	}
	// latency_us is the closed phase's acquire median. The open phase's,
	// which adds timer wake-up and a cold CPU to every operation, differs
	// by 15 % between runs of one commit on the reference host; it is
	// reported below and by the traced run, without a bound.
	cacq := closedLat.ns[opAcquire]
	o.set("latency_us", "us", scaled(cacq, 1e-3)...)
	acq := openLat.ns[opAcquire]
	lateN := 0
	for _, l := range late {
		if l > 1e6 {
			lateN++
		}
	}
	o.note("closed, %d sessions: acquire p50 %.1f us p99 %.1f us (n=%d)", len(sessions), stats.Quantile(cacq, 0.5)/1e3, stats.Quantile(cacq, 0.99)/1e3, len(cacq))
	o.note("open at %.0f ops/s: acquire p50 %.1f us p99 %.1f us from due time; late>1ms %.4f of %d; generator lateness p99 %.1f us",
		rate, stats.Quantile(acq, 0.5)/1e3, stats.Quantile(acq, 0.99)/1e3, float64(lateN)/float64(len(late)), len(late), stats.Quantile(late, 0.99)/1e3)
	o.note("conflict_frac %.4f of %d acquires (409 is a correct answer); %d stale", float64(conflicts)/float64(acquires), acquires, stale)
	o.verify("no operation failed and every session's tokens only grew", firstErr)
	var backlog error
	if finalLate > 0.1 {
		backlog = fmt.Errorf("the last operations were sent %.3f s after they were due", finalLate)
	}
	o.verify("open loop kept its schedule (no growing backlog)", backlog)

	// SIGTERM; the daemon must drain and exit 0.
	rss, err := d.stop()
	logPath := d.accessLog()
	d = nil
	o.verify("hbolockd exited 0 on SIGTERM and left nothing behind", err)
	if err == nil {
		o.set("peak_rss_mb", "MB", rss)
		f, err := os.Open(logPath)
		if err == nil {
			_, err = lockserv.VerifyAccessLogSegments(f)
			f.Close()
		}
		o.verify("access log verifies", err)
	}

	// wall_s: a restart as an operator sees it, on the fixed directory.
	// The phases above left megabytes of dirty log pages; write them out
	// now so the restarted daemon's fsync does not queue behind them.
	syscall.Sync()
	var restarts []float64
	for i := 0; i < restartReps; i++ {
		secs, err := restartCycle(bin, fixed, filepath.Join(e.scratch, fmt.Sprintf("cycle-%d", i)), e.seed, keys)
		if err != nil {
			return err
		}
		restarts = append(restarts, secs)
	}
	o.set("wall_s", "s", restarts...)
	return nil
}
