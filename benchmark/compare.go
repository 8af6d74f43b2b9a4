package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/stats"
)

// readRecords loads an -out file: one JSON record per line.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema != recordSchema {
			return nil, fmt.Errorf("%s: schema %q, want %s", path, r.Schema, recordSchema)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// side is one file's view of one (workload, metric): the median over
// its runs and their quartiles. A file with a single run of the
// workload falls back to the quartiles of the samples inside that run.
type side struct {
	median, q1, q3 float64
	runs           int
}

func sideOf(recs []runRecord, workload, name string, traced bool) (side, bool) {
	var vals []float64
	var only metric
	for _, r := range recs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
			only = m
		}
	}
	switch len(vals) {
	case 0:
		return side{}, false
	case 1:
		return side{median: only.Value, q1: only.Q1, q3: only.Q3, runs: 1}, true
	}
	q1, q3 := quartiles(vals)
	return side{median: stats.Median(vals), q1: q1, q3: q3, runs: len(vals)}, true
}

func (s side) spread() float64 { return math.Abs(s.q3-s.q1) / math.Abs(s.median) }

// exactLayers are per-layer numbers made of simulated time or byte
// counts only: between two runs of one commit with one seed they must
// not differ at all.
var exactLayers = []string{"paper_err_pct", "store.frames_per_op", "store.bytes_per_frame"}

// compareFiles applies every end-to-end metric's bound and direction to
// the runs in a (the parent, or the first set) and b (the change, or
// the second set). It prints one row per workload and metric and
// reports whether any row is worse.
func compareFiles(w io.Writer, spec *benchSpec, aPath, bPath string) (anyWorse bool, err error) {
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-12s %-7s %6s  %14s %27s  %14s %27s  %8s  %s\n",
		"workload", "metric", "better", "bound", "a median", "a q1..q3 (runs)", "b median", "b q1..q3 (runs)", "change", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, okA := sideOf(a, wl.Name, m.Name, false)
			sb, okB := sideOf(b, wl.Name, m.Name, false)
			if !okA || !okB {
				continue
			}
			// change > 0 means b is worse, whichever way is better.
			change := (sb.median - sa.median) / sa.median
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case change > m.Bound:
				verdict = "worse"
				anyWorse = true
			case math.Max(sa.spread(), sb.spread()) > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", math.Max(sa.spread(), sb.spread())*100)
			}
			fmt.Fprintf(w, "%-13s %-12s %-7s %5.0f%%  %14.6g %20s (%3d)  %14.6g %20s (%3d)  %+7.2f%%  %s\n",
				wl.Name, m.Name, m.Better, m.Bound*100,
				sa.median, fmt.Sprintf("%.5g..%.5g", sa.q1, sa.q3), sa.runs,
				sb.median, fmt.Sprintf("%.5g..%.5g", sb.q1, sb.q3), sb.runs,
				change*100, verdict)
		}
	}
	for _, name := range exactLayers {
		for _, wl := range spec.Workloads {
			sa, okA := sideOf(a, wl.Name, name, true)
			sb, okB := sideOf(b, wl.Name, name, true)
			if !okA || !okB {
				continue
			}
			verdict := "identical"
			if sa.median != sb.median {
				verdict = "DIFFERS (same seed on both sides?)"
			}
			fmt.Fprintf(w, "%-13s %-26s %14.9g  %14.9g  %s\n", wl.Name, name, sa.median, sb.median, verdict)
		}
	}
	return anyWorse, nil
}
