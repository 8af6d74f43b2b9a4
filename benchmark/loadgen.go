package main

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// The load generator shared by the two service workloads. A session is
// one client: idle it acquires (90 %) or inspects (10 %); holding a
// lease it renews (35 %), releases (50 %) or inspects (15 %). What a
// session does next depends on the answer it got, so the generated
// input is not a list of operations but a list of decisions — a roll
// for the mix, a tenant and a key — made once in set-up from the seed
// and consumed in order inside the timed loop.

type opKind uint8

const (
	opAcquire opKind = iota
	opRenew
	opRelease
	opInspect
	opKinds
)

func (k opKind) String() string {
	return [...]string{"acquire", "renew", "release", "inspect"}[k]
}

// decision packs roll (0..9999), tenant and key index into one word.
type decision uint32

func (d decision) roll() int   { return int(d >> 16) }
func (d decision) tenant() int { return int(d>>15) & 1 }
func (d decision) key() int    { return int(d & 0x7fff) }

// next maps a decision to the operation a session in the given state
// performs.
func (d decision) next(holding bool) opKind {
	r := d.roll()
	if !holding {
		if r < 9000 {
			return opAcquire
		}
		return opInspect
	}
	switch {
	case r < 3500:
		return opRenew
	case r < 8500:
		return opRelease
	}
	return opInspect
}

// scriptLen is a power of two so sessions can run past the end and wrap.
const scriptLen = 1 << 18

// newScript generates one session's decisions over keys [0, keys).
func newScript(seed uint64, session, keys int) []decision {
	rng := sim.NewRNG(seed*0x9e37 + uint64(session)*0x85eb + 1)
	s := make([]decision, scriptLen)
	for i := range s {
		v := rng.Uint64()
		roll := uint32(v % 10000)
		tenant := uint32(v>>20) & 1
		key := uint32((v >> 32) % uint64(keys))
		s[i] = decision(roll<<16 | tenant<<15 | key)
	}
	return s
}

var tenantNames = [2]string{"t0", "t1"}

// keyNames builds the key strings of one session's range once, so the
// timed loop formats nothing.
func keyNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%04d", prefix, i)
	}
	return out
}

// latencies collects raw per-operation samples; quantiles are taken
// from the sorted samples, not from histogram buckets.
type latencies struct {
	ns [opKinds][]float64
}

func (l *latencies) add(k opKind, d time.Duration) {
	l.ns[k] = append(l.ns[k], float64(d.Nanoseconds()))
}

func (l *latencies) merge(o *latencies) {
	for k := range l.ns {
		l.ns[k] = append(l.ns[k], o.ns[k]...)
	}
}
