package machine

import "fmt"

// This file is the always-on checkable form of the coherence invariants
// that used to live only in invariants_test.go. The machine's directory
// doubles as the ground truth for every CPU's cache, so three families
// of checks cover the protocol:
//
//   - MESI state validity: a Modified line has exactly one writer (an
//     in-range owner, no sharers); a Shared line has at least one sharer
//     and only in-range ones; an Uncached line has neither.
//   - Directory–cache ownership consistency: the CPU completing a write
//     must leave the directory showing it as the exclusive owner, and a
//     CPU completing a read must hold a valid copy.
//   - Conservation: the per-line traffic attribution (lineTraffic) must
//     sum to the machine-level Stats counters — the two are updated in
//     lockstep and any drift means attribution is lying.
//
// With Config.Probes set, the state checks run at every memory-access
// completion and the first violation is latched (ProbeError); the
// whole-machine checks are cheap enough to run after every simulation.

// CheckInvariants validates the directory's structural invariants for
// every touched line (only a miss, or SeedOwner, which touches, takes a
// line out of the valid Uncached state it is allocated in), plus any
// violation latched by the per-access probes. The waiter check only holds
// once the simulation has drained (spinners may legitimately be parked
// mid-run), so call it after Run.
func (m *Machine) CheckInvariants() error {
	if m.probeFailure != nil {
		return m.probeFailure
	}
	for _, c := range m.cold[1:] {
		if err := m.checkLine(c.index); err != nil {
			return err
		}
		if n := len(c.waiters); n != 0 {
			return fmt.Errorf("machine: line %d: %d waiters left parked", c.index, n)
		}
	}
	return m.CheckConservation()
}

// checkLine validates the MESI state invariants of line i.
func (m *Machine) checkLine(i int) error {
	l := &m.lines[i]
	switch l.state {
	case stateModified:
		if !l.sharers.empty() {
			return fmt.Errorf("machine: line %d: Modified with sharers %b", i, l.sharers)
		}
		if l.owner < 0 || int(l.owner) >= m.cfg.TotalCPUs() {
			return fmt.Errorf("machine: line %d: Modified with owner %d out of range", i, l.owner)
		}
	case stateShared:
		if l.sharers.empty() {
			return fmt.Errorf("machine: line %d: Shared with no sharers", i)
		}
		if max := m.cfg.TotalCPUs(); max < 64 && l.sharers>>uint(max) != 0 {
			return fmt.Errorf("machine: line %d: sharer bitmap %b names CPUs >= %d", i, l.sharers, max)
		}
	case stateUncached:
		if !l.sharers.empty() {
			return fmt.Errorf("machine: line %d: Uncached with sharers %b", i, l.sharers)
		}
	default:
		return fmt.Errorf("machine: line %d: invalid state %d", i, l.state)
	}
	return nil
}

// CheckConservation verifies that per-line traffic attribution sums to
// the machine totals: every counted transaction is attributed to exactly
// one line and vice versa.
func (m *Machine) CheckConservation() error {
	var local, global uint64
	for i := range m.cold {
		local += m.cold[i].traf.local
		global += m.cold[i].traf.global
	}
	if want := m.stats.TotalLocal(); local != want {
		return fmt.Errorf("machine: per-line local traffic %d != machine total %d", local, want)
	}
	if m.stats.Global != global {
		return fmt.Errorf("machine: per-line global traffic %d != machine total %d", global, m.stats.Global)
	}
	return nil
}

// ProbeError returns the first violation recorded by the per-access
// probes (nil when Probes is off or nothing fired).
func (m *Machine) ProbeError() error { return m.probeFailure }

// probeFail latches the first probe violation. Latching instead of
// panicking lets the correctness harness report the violation alongside
// the schedule that produced it.
func (m *Machine) probeFail(err error) {
	if m.probeFailure == nil {
		m.probeFailure = err
	}
}

// probeLine runs the per-line state checks at an access completion.
func (m *Machine) probeLine(a Addr) {
	if err := m.checkLine(int(a) / m.cfg.WordsPerLine); err != nil {
		m.probeFail(err)
	}
}

// probeAfterWrite asserts directory–cache ownership consistency after a
// write completion: the writing CPU must be the sole (Modified) owner.
func (m *Machine) probeAfterWrite(cpu int, a Addr) {
	if !m.cfg.Probes || m.probeFailure != nil {
		return
	}
	l := m.lineOf(a)
	if l.state != stateModified || int(l.owner) != cpu {
		m.probeFail(fmt.Errorf(
			"machine: cpu %d completed a write to %d but directory shows state=%d owner=%d",
			cpu, a, l.state, l.owner))
		return
	}
	m.probeLine(a)
}

// probeAfterRead asserts that a CPU completing a read holds a valid copy.
func (m *Machine) probeAfterRead(cpu int, a Addr) {
	if !m.cfg.Probes || m.probeFailure != nil {
		return
	}
	if !m.lineOf(a).cachedBy(cpu) {
		m.probeFail(fmt.Errorf(
			"machine: cpu %d completed a read of %d without a valid copy", cpu, a))
		return
	}
	m.probeLine(a)
}
