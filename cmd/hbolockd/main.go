// Command hbolockd is the live lock/lease daemon built on the native
// NUMA-aware lock stack: every tenant's key namespace is sharded, each
// shard arbitrated by a configurable native lock (-lock takes any
// algorithm the library implements), leases carry TTLs and monotonic
// fencing tokens, and the PR-6 observability layer streams out of the
// live process on the same port.
//
// Usage:
//
//	hbolockd -addr localhost:9151 -lock HBO -tenants 3 -shards 4
//	hbolockd -faults session -fault-seed 7 -access-log access.jsonl
//	hbolockd -data-dir /var/lib/hbolockd -snapshot-every 1024
//	hbolockd -data-dir /var/lib/hbolockd -check-data
//
// With -data-dir every lease transition is appended to a checksummed
// write-ahead log before it is acknowledged, compacted into snapshots
// every -snapshot-every records. On restart the daemon replays
// snapshot + WAL into an identical lease table (fencing tokens stay
// strictly monotonic across the crash), serving 503 recovering until
// replay completes. -check-data recovers read-only and prints the
// deterministic hbolockd-recovery/v1 report.
//
// Endpoints:
//
//	POST /v1/acquire /v1/renew /v1/release   lease operations
//	GET  /v1/inspect /v1/stats               state + per-shard counters
//	GET  /metrics /snapshot /report          live obs (watch with locktop)
//
// On SIGINT/SIGTERM the daemon drains: new operations are refused with
// 503 draining, in-flight requests finish under http.Server.Shutdown's
// -drain budget, the access log is flushed, and a final
// hbo-run-report/v1 JSON report lands at -report (default stdout).
// Exit is 0 on a clean drain.
//
// Flag validation follows the lockcheck pattern: bad values are
// rejected up front with usage text and exit status 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lockserv"
	"repro/internal/obs"
)

// newServer bounds how long a connection may take to deliver a request
// or sit idle: without the limits one client that sends half a request
// line holds a connection and a goroutine for as long as it likes. The
// read limits end once a request's small body is in, so they do not cut
// short an acquire that waits out its -op-timeout.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func main() {
	var (
		addr      = flag.String("addr", "localhost:9151", "listen address (host:port; :0 picks a port)")
		lockName  = flag.String("lock", "HBO", "shard-arbitration algorithm: "+strings.Join(core.AllNames(), ", "))
		tenants   = flag.Int("tenants", 2, "tenant namespaces to serve (t0..tN-1)")
		shards    = flag.Int("shards", 4, "shards per tenant")
		nodes     = flag.Int("nodes", 2, "logical NUCA nodes for the service runtime")
		pool      = flag.Int("pool", 4, "worker threads per node (the concurrency bound)")
		ttl       = flag.Duration("ttl", 5*time.Second, "default lease TTL")
		maxTTL    = flag.Duration("max-ttl", time.Minute, "cap on requested TTLs")
		opTimeout = flag.Duration("op-timeout", 100*time.Millisecond, "per-operation budget for thread checkout + shard-lock acquire")
		shardQPS  = flag.Float64("shard-qps", 0, "rate limit per shard in requests/second (0 = unlimited)")
		burst     = flag.Int("shard-burst", 0, "rate-limit burst (default 2x -shard-qps)")
		sweep     = flag.Duration("sweep", 250*time.Millisecond, "background lease-expiry sweep interval")
		drain     = flag.Duration("drain", 5*time.Second, "graceful-shutdown budget for in-flight requests")

		faultSched = flag.String("faults", "", "service fault schedule: "+strings.Join(fault.ServiceSchedules(), ", ")+" (empty = none)")
		faultSeed  = flag.Uint64("fault-seed", 11, "service fault seed")
		faultInt   = flag.Float64("fault-intensity", 0.75, "service fault intensity, in (0, 1]")

		dataDir   = flag.String("data-dir", "", "durable state directory (lease WAL + snapshots); empty = in-memory only")
		snapEvery = flag.Int("snapshot-every", 65536, "WAL records between snapshot compactions (with -data-dir)")
		checkData = flag.Bool("check-data", false, "recover -data-dir read-only, print the hbolockd-recovery/v1 report, and exit")

		accessLog  = flag.String("access-log", "", "write the JSONL lease audit trail here (verify with lockload -checklog; appended, not truncated, when -data-dir is set)")
		reportPath = flag.String("report", "-", "write the final hbo-run-report/v1 JSON here on shutdown ('-' = stdout)")
	)
	flag.Parse()

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "hbolockd: "+format+"\n", args...)
		os.Exit(2)
	}
	if *tenants < 1 {
		fail("-tenants must be >= 1 (got %d)", *tenants)
	}
	if *sweep <= 0 {
		fail("-sweep must be positive (got %v)", *sweep)
	}
	if *drain <= 0 {
		fail("-drain must be positive (got %v)", *drain)
	}
	if *snapEvery < 1 {
		fail("-snapshot-every must be >= 1 (got %d)", *snapEvery)
	}
	if *checkData {
		if *dataDir == "" {
			fail("-check-data requires -data-dir")
		}
		// Read-only recovery: inspecting a directory is side-effect
		// free, so running this twice yields byte-identical reports —
		// the determinism contract CI checks with cmp.
		st, err := lockserv.OpenStore(*dataDir, lockserv.StoreOptions{ReadOnly: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbolockd: %v\n", err)
			os.Exit(1)
		}
		if err := st.Recovery().WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "hbolockd: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var inj *fault.ServiceInjector
	if *faultSched != "" {
		cfg, err := fault.ServicePreset(*faultSched, *faultSeed, *faultInt)
		if err != nil {
			fail("%v", err)
		}
		inj = fault.NewServiceInjector(cfg)
	}

	var logFile *os.File
	if *accessLog != "" {
		// Durable runs append: across a crash/restart cycle the stitched
		// file is still one audit trail (the restarted daemon writes a
		// "recovered" marker first), and lockload -checklog verifies
		// fencing monotonicity straight across the boundary.
		logFlags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if *dataDir != "" {
			logFlags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		f, err := os.OpenFile(*accessLog, logFlags, 0o644)
		if err != nil {
			fail("%v", err)
		}
		if *dataDir != "" {
			// A SIGKILLed predecessor may have left a torn final line;
			// terminate it so our first event starts a fresh line. The
			// verifier skips the blank line this adds after a clean stop.
			if st, err := f.Stat(); err == nil && st.Size() > 0 {
				_, _ = f.WriteString("\n")
			}
		}
		logFile = f
	}

	// Catch signals before anything can be reached: a SIGTERM sent while
	// the WAL replays, or right after the first answer, must still drain
	// below instead of taking the default disposition.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bring the listener up before replaying durable state so that
	// clients arriving mid-boot see 503 recovering (a retryable NACK
	// with a Retry-After hint) rather than connection refused. The
	// handler is swapped atomically once the service is live.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbolockd: %v\n", err)
		os.Exit(1)
	}
	var handler atomic.Pointer[http.Handler]
	recovering := lockserv.RecoveringHandler(50 * time.Millisecond)
	handler.Store(&recovering)
	srv := newServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		(*handler.Load()).ServeHTTP(w, req)
	}))
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var store *lockserv.Store
	if *dataDir != "" {
		st, err := lockserv.OpenStore(*dataDir, lockserv.StoreOptions{SnapshotEvery: *snapEvery})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbolockd: %v\n", err)
			os.Exit(1)
		}
		store = st
		rec := st.Recovery()
		fmt.Fprintf(os.Stderr, "hbolockd: recovered %s (snapshot seq %d, %d WAL frames replayed, torn tail: %v)\n",
			*dataDir, rec.SnapshotSeq, rec.FramesReplayed, rec.TornTail)
	}

	names := make([]string, *tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	reg := obs.NewRegistry()
	cfg := lockserv.Config{
		Tenants:        names,
		Shards:         *shards,
		Nodes:          *nodes,
		ThreadsPerNode: *pool,
		Lock:           *lockName,
		DefaultTTL:     *ttl,
		MaxTTL:         *maxTTL,
		OpTimeout:      *opTimeout,
		ShardQPS:       *shardQPS,
		ShardBurst:     *burst,
		Registry:       reg,
		Faults:         inj,
		Store:          store,
	}
	if logFile != nil {
		cfg.AccessLog = logFile
	}
	svc, err := lockserv.New(cfg)
	if err != nil {
		// Config validation failures are usage errors.
		fail("%v", err)
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/", lockserv.Handler(svc))
	mux.Handle("/", reg.Handler())
	live := http.Handler(mux)
	handler.Store(&live)
	fmt.Fprintf(os.Stderr, "hbolockd: serving %d tenants x %d shards (lock=%s) on http://%s\n",
		*tenants, *shards, *lockName, ln.Addr())

	// Background sweeper: expire due leases promptly even on idle keys
	// and refresh the node-affinity hints off the request path.
	sweepDone := make(chan struct{})
	sweepStop := make(chan struct{})
	go func() {
		defer close(sweepDone)
		tick := time.NewTicker(*sweep)
		defer tick.Stop()
		for {
			select {
			case <-sweepStop:
				return
			case <-tick.C:
				svc.SweepDue()
				svc.RefreshAffinity()
			}
		}
	}()

	select {
	case <-ctx.Done():
		// Graceful drain: refuse new lease traffic, let in-flight
		// requests finish, then flush state.
		fmt.Fprintln(os.Stderr, "hbolockd: draining")
		svc.Drain()
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "hbolockd: shutdown: %v\n", err)
		}
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "hbolockd: %v\n", err)
		os.Exit(1)
	}
	close(sweepStop)
	<-sweepDone

	exit := 0
	if err := svc.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "hbolockd: access log: %v\n", err)
		exit = 1
	}
	if store != nil {
		// Clean exits fsync: SIGKILL durability rests on the WAL's
		// single-write frames, but a graceful drain should survive
		// machine crashes too.
		if err := store.Sync(); err != nil {
			fmt.Fprintf(os.Stderr, "hbolockd: store: %v\n", err)
			exit = 1
		}
		if err := store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hbolockd: store: %v\n", err)
			exit = 1
		}
	}
	if logFile != nil {
		if err := logFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hbolockd: access log: %v\n", err)
			exit = 1
		}
	}

	w := os.Stdout
	if *reportPath != "-" && *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbolockd: report: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := reg.Report("hbolockd").WriteJSON(w); err != nil {
		fmt.Fprintf(os.Stderr, "hbolockd: report: %v\n", err)
		exit = 1
	}
	os.Exit(exit)
}
