package core

import (
	"runtime"

	"repro/internal/lockspec"
)

// Tuning holds the backoff constants for the native locks. Units are
// iterations of the busy-wait loop in spinDelay; the effective duration
// depends on the host CPU, exactly as the paper notes ("backoff
// parameters must be tuned by trial and error for each individual
// architecture"). The type is shared with internal/simlock via
// lockspec, so one value can configure an algorithm in either
// stack.
type Tuning = lockspec.Tuning

// DefaultTuning returns constants that behave reasonably on commodity
// hardware.
func DefaultTuning() Tuning {
	return Tuning{
		BackoffBase:       64,
		BackoffFactor:     2,
		BackoffCap:        4096,
		RemoteBackoffBase: 1024,
		RemoteBackoffCap:  16384,
		GetAngryLimit:     32,
		RHRemoteBase:      1024,
		RHRemoteCap:       16384,
		RHFairTries:       4,
		RHGlobalEvery:     64,
		YieldThreshold:    1024,
	}
}

// spinDelay busy-waits for roughly n loop iterations, yielding the
// processor periodically so spinners cannot starve the goroutine holding
// the lock when GOMAXPROCS is smaller than the number of contenders.
func spinDelay(n, yieldEvery int) {
	for i := 0; i < n; i++ {
		if i%yieldEvery == yieldEvery-1 {
			runtime.Gosched()
		}
	}
}

// backoff delays for *b iterations and doubles *b up to cap (the paper's
// backoff helper, Figure 1 lines 11–16).
func backoff(b *int, factor, cap, yieldEvery int) {
	spinDelay(*b, yieldEvery)
	*b *= factor
	if *b > cap {
		*b = cap
	}
}
