package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSoakLockNames(t *testing.T) {
	if names, err := soakLockNames("all"); err != nil || len(names) != 16 {
		t.Fatalf("all = %v, %v", names, err)
	}
	if names, err := soakLockNames("paper"); err != nil || len(names) != 8 {
		t.Fatalf("paper = %v, %v", names, err)
	}
	names, err := soakLockNames("HBO, TATAS")
	if err != nil || strings.Join(names, "+") != "HBO+TATAS" {
		t.Fatalf("list = %v, %v", names, err)
	}
	if _, err := soakLockNames("NOPE"); err == nil {
		t.Fatal("unknown lock accepted")
	}
	if _, err := soakLockNames(","); err == nil {
		t.Fatal("empty list accepted")
	}
}

// TestRunSoakProducesLiveReport runs a short real soak over two locks
// and checks the emitted report reflects actual contended activity.
func TestRunSoakProducesLiveReport(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	err := runSoak(context.Background(), &buf, reg, 100*time.Millisecond, []string{"TATAS", "HBO"}, 4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema string `json:"schema"`
		Tool   string `json:"tool"`
		Host   struct {
			CPUs int `json:"cpus"`
		} `json:"host"`
		Locks []struct {
			Lock         string `json:"lock"`
			Acquisitions int    `json:"acquisitions"`
		} `json:"locks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Schema != "hbo-run-report/v1" || rep.Tool != "hbobench" {
		t.Fatalf("schema/tool = %q/%q", rep.Schema, rep.Tool)
	}
	if rep.Host.CPUs < 1 {
		t.Fatalf("host block missing: %+v", rep.Host)
	}
	if len(rep.Locks) != 2 {
		t.Fatalf("locks = %+v", rep.Locks)
	}
	for _, l := range rep.Locks {
		if l.Acquisitions < 10 {
			t.Errorf("%s: only %d acquisitions in a 50ms soak slice", l.Lock, l.Acquisitions)
		}
	}

	// The registry behind the report is also the scrape target: its
	// exposition must show the soak's activity (locktop -promcheck
	// applies the same predicate to the HTTP endpoint).
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParsePrometheus(prom.String())
	if err != nil {
		t.Fatal(err)
	}
	if s := obs.FindSample(samples, "hbo_lock_attempts_total", map[string]string{"lock": "TATAS"}); s == nil || s.Value < 10 {
		t.Fatalf("attempts sample = %+v", s)
	}
}

// TestRunSoakCancelled: cancelling the context (what SIGINT does in
// main) ends a long soak early and still flushes a valid report.
func TestRunSoakCancelled(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := runSoak(ctx, &buf, reg, time.Hour, []string{"TATAS", "HBO"}, 4, 0); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("cancelled soak took %v", e)
	}
	var rep struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("interrupted report does not parse: %v", err)
	}
	if rep.Schema != "hbo-run-report/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
}
