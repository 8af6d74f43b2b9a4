package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// benchPHOLD drives the classic PHOLD model: parts partitions, jobs
// jobs per partition, each job hopping either locally or to a random
// remote partition (40% remote, delay >= lookahead). The model is pure
// event scheduling — no process goroutines — so it measures the PDES
// window/merge machinery itself.
func benchPHOLD(b *testing.B, parts, workers, jobs int, horizon Time) {
	const lookahead = 50
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewParEngine(parts, workers, lookahead)
		d.SetLimit(horizon)
		rngs := make([]*RNG, parts)
		events := make([]int64, parts)
		var step func(p *Part)
		step = func(p *Part) {
			r := rngs[p.ID()]
			events[p.ID()]++
			// A dash of local work per hop keeps the event:message ratio
			// realistic (coherence models do far more local than remote).
			for k := 0; k < 4; k++ {
				p.Schedule(1+r.Timen(lookahead), func() { events[p.ID()]++ })
			}
			if parts > 1 && r.Intn(100) < 40 {
				dst := r.Intn(parts - 1)
				if dst >= p.ID() {
					dst++
				}
				p.Send(dst, lookahead+r.Timen(lookahead), func() { step(p.Engine().Part(dst)) })
			} else {
				p.Schedule(1+r.Timen(lookahead), func() { step(p) })
			}
		}
		for pi := 0; pi < parts; pi++ {
			rngs[pi] = NewRNG(mixSeed(1, uint64(pi)))
			p := d.Part(pi)
			for j := 0; j < jobs; j++ {
				p.Schedule(rngs[pi].Timen(lookahead), func() { step(p) })
			}
		}
		d.Run()
		d.Shutdown()
		var total int64
		for _, n := range events {
			total += n
		}
		if total == 0 {
			b.Fatal("no events executed")
		}
		if i == b.N-1 {
			b.ReportMetric(float64(total), "events/op")
		}
	}
}

// BenchmarkParEnginePHOLD measures one big partitioned simulation at
// several worker widths; the width-1 row is the sequential baseline the
// speedup columns in BENCH_pdes.json divide by.
func BenchmarkParEnginePHOLD(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parts=64/workers=%d", w), func(b *testing.B) {
			benchPHOLD(b, 64, w, 4, 100_000)
		})
	}
}

// BenchmarkParEngineBarrier measures one barrier and little else: 64
// partitions, one local event per partition per window, no sends, so an
// op is a window. The width-1 row is what the window loop costs with no
// helper; the gap to the wider row is what sharing a window costs when
// there is nothing in it to win back.
func BenchmarkParEngineBarrier(b *testing.B) {
	widths := []int{1}
	if w := min(runtime.GOMAXPROCS(0), 4); w > 1 {
		widths = append(widths, w)
	}
	for _, w := range widths {
		b.Run(fmt.Sprintf("parts=64/workers=%d", w), func(b *testing.B) {
			const parts, lookahead = 64, 50
			d := NewParEngine(parts, w, lookahead)
			d.SetLimit(Time(b.N) * lookahead)
			for i := 0; i < parts; i++ {
				p := d.Part(i)
				var tick func()
				tick = func() { p.Schedule(lookahead, tick) }
				p.Schedule(0, tick)
			}
			b.ResetTimer()
			d.Run()
			b.StopTimer()
			d.Shutdown()
		})
	}
}
