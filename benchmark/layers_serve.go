package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/lockserv"
	"repro/internal/stats"
)

// spanWriter records a span and a byte count for every Write that
// passes through it. Handed to StoreOptions.WrapWAL it sees one Write
// per WAL frame; handed to Config.AccessLog it sees one Write per flush
// of the access log's 64 KiB buffer.
type spanWriter struct {
	w     io.Writer
	tr    *tracer
	name  string
	calls int64
	bytes int64
}

func (s *spanWriter) Write(p []byte) (int, error) {
	start := s.tr.now()
	n, err := s.w.Write(p)
	s.tr.add(s.name, start, s.tr.now())
	s.calls++
	s.bytes += int64(n)
	return n, err
}

// tracedRig is a coreRig whose WAL and access-log writers record spans.
// Wrapping the WAL writer turns off the store's in-place frame
// encoding; that cost is part of the tracing overhead reported.
type tracedRig struct {
	*coreRig
	wal, log *spanWriter
}

func newTracedRig(dir string, tr *tracer) (*tracedRig, error) {
	t := &tracedRig{
		wal: &spanWriter{tr: tr, name: "store.wal_write"},
		log: &spanWriter{tr: tr, name: "accesslog.write"},
	}
	rig, err := newCoreRig(dir, rigOptions{
		wrapWAL: func(w io.Writer) io.Writer { t.wal.w = w; return t.wal },
		wrapLog: func(w io.Writer) io.Writer { t.log.w = w; return t.log },
	})
	t.coreRig = rig
	return t, err
}

// runSpans performs n operations, each a request of its own with a span
// named after the Service method it calls.
func (s *coreSession) runSpans(svc *lockserv.Service, n int, tr *tracer) {
	for i := 0; i < n; i++ {
		kind := s.script[s.pos&(scriptLen-1)].next(s.holding)
		tr.cur.Add(1)
		start := tr.now()
		s.step(svc)
		tr.add("lockserv."+kind.String(), start, tr.now())
	}
}

func (l *ladder) subdir(name string) (string, error) {
	dir := filepath.Join(l.e.scratch, name)
	return dir, os.MkdirAll(dir, 0o755)
}

// serviceLayers walks the "serve a lease" path from the inside out:
// store, access log, Service methods, HTTP handler, client over
// loopback, and last the real daemon under W sessions.
func (l *ladder) serviceLayers() error {
	if err := l.storeLayer(); err != nil {
		return err
	}
	if err := l.lockservLayer(); err != nil {
		return err
	}
	if err := l.sharesLayer(); err != nil {
		return err
	}
	if err := l.httpLayers(); err != nil {
		return err
	}
	return l.daemonLayer()
}

// storeLayer: the Store on its own.
func (l *ladder) storeLayer() error {
	dir, err := l.subdir("store-append")
	if err != nil {
		return err
	}
	st, err := lockserv.OpenStore(dir, lockserv.StoreOptions{SnapshotEvery: 1 << 30})
	if err != nil {
		return err
	}
	keys := keyNames("k", 1024)
	expiry := time.Now().Add(time.Hour).UnixNano()
	appendN := func(n int, from uint64) error {
		for i := 0; i < n; i++ {
			if err := st.Append("grant", "t0", keys[i&1023], "owner", from+uint64(i), expiry); err != nil {
				return err
			}
		}
		return nil
	}
	// A snapshot cycle's worth of frames, timed in three parts, then
	// the compaction the 65536th frame would trigger.
	frames := 65536
	if l.e.smoke {
		frames = 3000
	}
	var per []float64
	for part := 0; part < 3; part++ {
		start := time.Now()
		if err := appendN(frames/3, uint64(part*frames)); err != nil {
			return err
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(frames/3))
	}
	l.o.set("store.append_ns", "ns", per...)
	start := time.Now()
	if err := st.Compact(); err != nil {
		return err
	}
	l.o.set("store.compact_ms", "ms", time.Since(start).Seconds()*1e3)
	if err := st.Close(); err != nil {
		return err
	}

	fixed, err := l.subdir("store-replay")
	if err != nil {
		return err
	}
	if err := buildRestartDir(fixed, l.e.seed); err != nil {
		return err
	}
	var replays []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		ro, err := lockserv.OpenStore(filepath.Join(fixed, "data"), lockserv.StoreOptions{ReadOnly: true})
		if err != nil {
			return err
		}
		replays = append(replays, time.Since(start).Seconds()*1e3)
		ro.Close()
	}
	l.o.set("store.replay_ms", "ms", replays...)
	return nil
}

// lockservLayer: one session calling the Service methods directly,
// with spans around each call and inside the two writers.
func (l *ladder) lockservLayer() error {
	n := l.n(60_000)
	// The same script untraced first: the difference is what the spans
	// and the wrapped WAL writer cost.
	dir, err := l.subdir("lockserv-plain")
	if err != nil {
		return err
	}
	plain, err := newCoreRig(dir, rigOptions{})
	if err != nil {
		return err
	}
	s := newCoreSession(l.e.seed, 0)
	s.run(plain.svc, n/10)
	start := time.Now()
	s.run(plain.svc, n)
	plainNS := float64(time.Since(start).Nanoseconds()) / float64(n)
	if err := plain.close(); err != nil {
		return err
	}

	tr := newTracer()
	if dir, err = l.subdir("lockserv-traced"); err != nil {
		return err
	}
	rig, err := newTracedRig(dir, tr)
	if err != nil {
		return err
	}
	s = newCoreSession(l.e.seed, 0)
	s.run(rig.svc, n/10)
	walBefore, opsBefore := rig.wal.calls, s.ops
	start = time.Now()
	s.runSpans(rig.svc, n, tr)
	tracedNS := float64(time.Since(start).Nanoseconds()) / float64(n)
	frames := rig.wal.calls - walBefore
	if err := rig.close(); err != nil {
		return err
	}
	l.o.Attempted += s.ops
	l.o.Failed += s.failed
	l.o.verify("traced service operations got the answers expected", s.firstErr)

	times := tr.selfTimes()
	for k := opAcquire; k < opKinds; k++ {
		lt := times["lockserv."+k.String()]
		if lt == nil {
			continue
		}
		l.o.set("lockserv."+k.String()+"_ns", "ns", lt.total...)
	}
	if lt := times["lockserv.acquire"]; lt != nil {
		l.o.set("lockserv.acquire_p99_ns", "ns", stats.Quantile(lt.total, 0.99))
	}
	if lt := times["store.wal_write"]; lt != nil {
		l.o.set("store.wal_write_ns", "ns", lt.total...)
	}
	if lt := times["accesslog.write"]; lt != nil {
		l.o.set("accesslog.write_ns", "ns", lt.total...)
	}
	l.o.set("store.bytes_per_frame", "B", float64(rig.wal.bytes)/float64(rig.wal.calls))
	l.o.set("store.frames_per_op", "ratio", float64(frames)/float64(s.ops-opsBefore))
	l.o.set("accesslog.bytes_per_op", "B", float64(rig.log.bytes)/float64(s.ops))
	l.o.set("trace.overhead_pct.serve-core", "%", (tracedNS-plainNS)/plainNS*100)

	f, err := os.Open(filepath.Join(dir, "access.jsonl"))
	if err != nil {
		return err
	}
	start = time.Now()
	_, err = lockserv.VerifyAccessLog(f)
	l.o.set("accesslog.verify_ms", "ms", time.Since(start).Seconds()*1e3)
	f.Close()
	l.o.verify("traced run's access log verifies", err)
	return tr.writeChrome(l.path("serve-core"), "serve-core")
}

// sharesLayer: the serve-core loop with the store taken out, then with
// the access log taken out. A layer's share is what throughput gains
// without it.
func (l *ladder) sharesLayer() error {
	n := l.n(100_000)
	rate := func(name string, opt rigOptions) (float64, error) {
		dir, err := l.subdir(name)
		if err != nil {
			return 0, err
		}
		rig, err := newCoreRig(dir, opt)
		if err != nil {
			return 0, err
		}
		var sessions []*coreSession
		for i := 0; i < l.e.w; i++ {
			sessions = append(sessions, newCoreSession(l.e.seed, i))
		}
		runSlice(rig.svc, sessions, n/10)
		var rates []float64
		for r := 0; r < 3; r++ {
			rates = append(rates, float64(n*len(sessions))/runSlice(rig.svc, sessions, n))
		}
		for _, s := range sessions {
			l.o.Attempted += s.ops
			l.o.Failed += s.failed
		}
		return stats.Median(rates), rig.close()
	}
	full, err := rate("shares-full", rigOptions{})
	if err != nil {
		return err
	}
	memory, err := rate("shares-memory", rigOptions{noStore: true})
	if err != nil {
		return err
	}
	nolog, err := rate("shares-nolog", rigOptions{noAccessLog: true})
	if err != nil {
		return err
	}
	l.o.set("lockserv.memory_ops_per_s", "1/s", memory)
	l.o.set("lockserv.wal_share_pct", "%", (1-full/memory)*100)
	l.o.set("lockserv.accesslog_share_pct", "%", (1-full/nolog)*100)
	return nil
}

// recorderTransport answers requests by calling the handler in place on
// an httptest.ResponseRecorder: the handler's cost with no socket.
type recorderTransport struct {
	h  http.Handler
	tr *tracer
}

func (t *recorderTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	start := t.tr.now()
	t.h.ServeHTTP(rec, req)
	t.tr.add("lockserv.handler", start, t.tr.now())
	return rec.Result(), nil
}

// spanTransport records a span around the real transport's round trip.
type spanTransport struct {
	rt http.RoundTripper
	tr *tracer
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := t.tr.now()
	resp, err := t.rt.RoundTrip(req)
	t.tr.add("transport.roundtrip", start, t.tr.now())
	return resp, err
}

// httpLayers: the handler with no socket, then one session through
// lockclient over loopback to an in-process http.Server, with spans
// client → transport → handler → {wal write, access-log write} nesting
// by containment. This is the attribution of the gap between a 2 µs
// service operation and a 200 µs request.
func (l *ladder) httpLayers() error {
	keys := keyNames("shared/k", httpKeys)
	n := l.n(4_000)

	// Handler on a recorder.
	tr := newTracer()
	dir, err := l.subdir("handler")
	if err != nil {
		return err
	}
	rig, err := newTracedRig(dir, tr)
	if err != nil {
		return err
	}
	s := newHTTPSession("recorder", l.e.seed, 0, keys, &recorderTransport{h: lockserv.Handler(rig.svc), tr: tr})
	s.wrap = func(kind opKind, fn func()) { tr.cur.Add(1); fn() }
	for i := 0; i < 5*n; i++ {
		s.step(context.Background(), time.Time{})
	}
	if err := rig.close(); err != nil {
		return err
	}
	l.o.Attempted += s.ops
	l.o.Failed += s.failed
	if lt := tr.selfTimes()["lockserv.handler"]; lt != nil {
		l.o.set("lockserv.handler_us", "us", scaled(lt.total, 1e-3)...)
		l.o.set("lockserv.handler_self_us", "us", scaled(lt.self, 1e-3)...)
	}

	// One session over loopback, untraced then traced.
	serve := func(name string, tr *tracer) (perOpUS float64, s *httpSession, err error) {
		dir, err := l.subdir(name)
		if err != nil {
			return 0, nil, err
		}
		var svc *lockserv.Service
		var closeRig func() error
		var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		if tr != nil {
			rig, err := newTracedRig(dir, tr)
			if err != nil {
				return 0, nil, err
			}
			svc, closeRig, rt = rig.svc, rig.close, &spanTransport{rt: rt, tr: tr}
		} else {
			rig, err := newCoreRig(dir, rigOptions{})
			if err != nil {
				return 0, nil, err
			}
			svc, closeRig = rig.svc, rig.close
		}
		handler := lockserv.Handler(svc)
		if tr != nil {
			inner := handler
			handler = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				start := tr.now()
				inner.ServeHTTP(w, req)
				tr.add("lockserv.handler", start, tr.now())
			})
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, nil, err
		}
		srv := &http.Server{Handler: handler}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		s = newHTTPSession(ln.Addr().String(), l.e.seed, 0, keys, rt)
		if tr != nil {
			s.wrap = func(kind opKind, fn func()) {
				tr.cur.Add(1)
				start := tr.now()
				fn()
				tr.add("lockclient.roundtrip", start, tr.now())
			}
		}
		for i := 0; i < n/10; i++ {
			s.step(context.Background(), time.Time{})
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			s.step(context.Background(), time.Time{})
		}
		perOpUS = time.Since(start).Seconds() * 1e6 / float64(n)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return 0, nil, err
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			return 0, nil, err
		}
		return perOpUS, s, closeRig()
	}
	plainUS, ps, err := serve("loopback-plain", nil)
	if err != nil {
		return err
	}
	tr = newTracer()
	tracedUS, ts, err := serve("loopback-traced", tr)
	if err != nil {
		return err
	}
	for _, s := range []*httpSession{ps, ts} {
		l.o.Attempted += s.ops
		l.o.Failed += s.failed
		if s.firstErr != nil {
			l.o.verify("loopback session", s.firstErr)
		}
	}
	l.o.set("trace.overhead_pct.serve-http", "%", (tracedUS-plainUS)/plainUS*100)

	times := tr.selfTimes()
	client, transport := times["lockclient.roundtrip"], times["transport.roundtrip"]
	if client == nil || transport == nil {
		return errors.New("loopback trace has no client or transport spans")
	}
	l.o.set("lockclient.roundtrip_us", "us", scaled(client.total, 1e-3)...)
	l.o.set("lockclient.self_us", "us", scaled(client.self, 1e-3)...)
	l.o.set("transport.roundtrip_us", "us", scaled(transport.total, 1e-3)...)
	// Per request the self times add up to the client span exactly; say
	// how close the medians come, and where each request's time went.
	perReq := float64(len(client.total))
	sumSelf := 0.0
	for _, name := range []string{"lockclient.roundtrip", "transport.roundtrip", "lockserv.handler", "store.wal_write", "accesslog.write"} {
		lt := times[name]
		if lt == nil {
			continue
		}
		share := sum(lt.self) / perReq
		sumSelf += share
		l.o.note("serve-http self time per request: %-22s %9.2f us (median span %.2f us, %d spans)", name, share/1e3, stats.Median(lt.total)/1e3, len(lt.total))
	}
	l.o.note("serve-http self times sum to %.2f us per request; client span mean %.2f us, median %.2f us",
		sumSelf/1e3, sum(client.total)/perReq/1e3, stats.Median(client.total)/1e3)
	return tr.writeChrome(l.path("serve-http"), "serve-http")
}

// daemonLayer: the real daemon under W sessions, for the numbers that
// are too unsteady on a shared host to carry a bound: open-loop
// latency, lateness, conflicts and refusals.
func (l *ladder) daemonLayer() error {
	dir, err := l.subdir("daemon")
	if err != nil {
		return err
	}
	bin, err := buildDaemon(l.e, dir)
	if err != nil {
		return err
	}
	d, err := startDaemon(bin, dir)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			_, _ = d.stop()
		}
	}()
	keys := keyNames("shared/k", httpKeys)
	var sessions []*httpSession
	for i := 0; i < l.e.w; i++ {
		sessions = append(sessions, newHTTPSession(d.addr, l.e.seed, i, keys, nil))
	}
	rate := openRate
	if l.e.smoke {
		rate = 200
	}
	closedLoop(sessions, l.e.dur(0.1))
	var closed latencies
	for _, s := range sessions {
		closed.merge(&s.lat)
		s.lat = latencies{}
	}
	finalLate := openLoop(sessions, rate, l.e.dur(0.2))
	var open latencies
	var late []float64
	var acquires, conflicts, busy int64
	for _, s := range sessions {
		open.merge(&s.lat)
		late = append(late, s.late...)
		acquires += s.acquires
		conflicts += s.conflicts
		busy += s.busy
		l.o.Attempted += s.ops
		l.o.Failed += s.failed
		if s.firstErr != nil {
			l.o.verify("daemon session", s.firstErr)
		}
	}
	lateN := 0
	for _, x := range late {
		if x > 1e6 {
			lateN++
		}
	}
	acq := open.ns[opAcquire]
	l.o.set("serve.closed_acquire_p99_us", "us", stats.Quantile(closed.ns[opAcquire], 0.99)/1e3)
	l.o.set("serve.open_acquire_p50_us", "us", stats.Quantile(acq, 0.5)/1e3)
	l.o.set("serve.open_acquire_p99_us", "us", stats.Quantile(acq, 0.99)/1e3)
	l.o.set("serve.open_late_frac", "ratio", float64(lateN)/float64(len(late)))
	l.o.set("serve.conflict_frac", "ratio", float64(conflicts)/float64(acquires))
	l.o.set("lockserv.busy_frac", "ratio", float64(busy)/float64(acquires))
	l.o.set("loadgen.late_p99_us", "us", stats.Quantile(late, 0.99)/1e3)
	var backlog error
	if finalLate > 0.1 {
		backlog = fmt.Errorf("the last operations were sent %.3f s after they were due", finalLate)
	}
	l.o.verify("open loop kept its schedule (no growing backlog)", backlog)
	_, err = d.stop()
	d = nil
	l.o.verify("hbolockd exited 0 on SIGTERM and left nothing behind", err)
	return nil
}
