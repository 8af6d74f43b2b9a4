package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/lockserv"
)

// TestSIGTERMFromTheFirstAnswer: a SIGTERM that arrives as early as a
// client can send one — while the WAL is still replaying (the listener
// answers 503), or the moment /v1/stats first answers 200 — must drain
// like any other: exit 0, access log flushed and valid. The signal
// context therefore has to exist before the listener does.
func TestSIGTERMFromTheFirstAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon 20 times")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hbolockd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building hbolockd: %v\n%s", err, out)
	}

	// A WAL long enough that replay takes tens of milliseconds, never
	// compacted, so every round recovers all of it.
	const frames, noSnapshot = 10000, 1 << 30
	dataDir := filepath.Join(dir, "data")
	st, err := lockserv.OpenStore(dataDir, lockserv.StoreOptions{SnapshotEvery: noSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	expiry := time.Now().Add(time.Hour).UnixNano()
	for i := 0; i < frames; i++ {
		if err := st.Append("grant", "t0", fmt.Sprintf("k%d", i), "seed", 1, expiry); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	accessLog := filepath.Join(dir, "access.jsonl")
	client := &http.Client{Timeout: time.Second}
	for round := 0; round < 20; round++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()

		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir,
			"-snapshot-every", fmt.Sprint(noSnapshot),
			"-access-log", accessLog, "-report", filepath.Join(dir, "report.json"))
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()

		// Odd rounds signal at the first answer of any status (503 while
		// the WAL replays), even rounds at the first 200.
		deadline := time.Now().Add(20 * time.Second)
		for {
			resp, err := client.Get("http://" + addr + "/v1/stats")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK || round%2 == 1 {
					break
				}
			}
			if time.Now().After(deadline) {
				_ = cmd.Process.Kill()
				t.Fatalf("round %d: daemon on %s never answered: %v\n%s", round, addr, err, stderr.String())
			}
			time.Sleep(time.Millisecond)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("round %d: SIGTERM did not drain: %v\n%s", round, err, stderr.String())
			}
		case <-time.After(20 * time.Second):
			_ = cmd.Process.Kill()
			t.Fatalf("round %d: daemon still running 20s after SIGTERM\n%s", round, stderr.String())
		}

		f, err := os.Open(accessLog)
		if err != nil {
			t.Fatal(err)
		}
		_, err = lockserv.VerifyAccessLogSegments(f)
		f.Close()
		if err != nil {
			t.Fatalf("round %d: access log: %v", round, err)
		}
	}
}

// TestHalfSentHeaderIsCutOff: a client that sends part of a request line
// and then nothing must lose its connection when ReadHeaderTimeout runs
// out, not hold it and a server goroutine forever. The server is the one
// main builds; the client waits on a read deadline, not a sleep.
func TestHalfSentHeaderIsCutOff(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the daemon's 5 s header timeout")
	}
	srv := newServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("server timeouts unset: header %v, read %v, idle %v", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/stats HT")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(srv.ReadHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server answers a timed-out header with nothing, or with a 408
	// it then closes behind; either way the stream ends.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open %v after half a request line: %v", srv.ReadHeaderTimeout+10*time.Second, err)
	}
}
