package machine

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestLineIsOneHalfCacheLine: the dense table's element stays at 32
// pointer-free bytes; what only a miss needs belongs in coldLine.
func TestLineIsOneHalfCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n > 32 {
		t.Fatalf("sizeof(line) = %d, want <= 32", n)
	}
}

// refArena is the word-at-a-time reference for the allocators: pad to a
// line, append each word, then append lines homed at the caller's node
// until the words are covered. A bulk allocation is its one-word
// allocations in order.
type refArena struct {
	wpl, words int
	homes      []int
}

func newRefArena(m *Machine) *refArena {
	r := &refArena{wpl: m.cfg.WordsPerLine, words: len(m.words)}
	for _, l := range m.lines {
		r.homes = append(r.homes, int(l.home))
	}
	return r
}

func (r *refArena) alloc(home, words int) Addr {
	for r.words%r.wpl != 0 {
		r.words++
	}
	base := Addr(r.words)
	r.words += words
	for len(r.homes)*r.wpl < r.words {
		r.homes = append(r.homes, home)
	}
	return base
}

func (r *refArena) allocLines(n int, home func(int) int) Addr {
	base := r.alloc(home(0), 1)
	for i := 1; i < n; i++ {
		if a := r.alloc(home(i), 1); a != base+Addr(i*r.wpl) {
			panic("reference: one-word allocations are not at line stride")
		}
	}
	return base
}

// check compares the machine's arena with the reference.
func (r *refArena) check(t *testing.T, m *Machine) {
	t.Helper()
	if m.AllocatedWords() != r.words || len(m.lines) != len(r.homes) {
		t.Fatalf("wpl %d: %d words %d lines, want %d and %d", r.wpl, m.AllocatedWords(), len(m.lines), r.words, len(r.homes))
	}
	for i, l := range m.lines {
		if int(l.home) != r.homes[i] {
			t.Fatalf("wpl %d: line %d homed at %d, want %d", r.wpl, i, l.home, r.homes[i])
		}
		if l.cold != 0 || l.state != stateUncached || l.sharers != 0 || l.busyUntil != 0 {
			t.Fatalf("wpl %d: line %d not zero after allocation: %+v", r.wpl, i, l)
		}
	}
	for a, w := range m.words {
		if w != 0 {
			t.Fatalf("wpl %d: word %d = %d after allocation", r.wpl, a, w)
		}
	}
}

// TestAllocMatchesPerWordReference: Alloc and AllocLines reserve their
// words and lines in one step; the addresses they return and the home of
// every line must be what growing the arrays a word and a line at a time
// produced, whatever the mix of the two.
func TestAllocMatchesPerWordReference(t *testing.T) {
	for _, wpl := range []int{1, 2, 4, 8} {
		m := wideLines()
		m.cfg.WordsPerLine = wpl
		ref := newRefArena(m)
		rng := sim.NewRNG(uint64(wpl))
		for i := 0; i < 500; i++ {
			home, n := rng.Intn(2), 1+rng.Intn(11)
			var got, want Addr
			if rng.Intn(3) == 0 {
				flip := func(k int) int { return (home + k) % 2 }
				got, want = m.AllocLines(n, flip), ref.allocLines(n, flip)
			} else {
				got, want = m.Alloc(home, n), ref.alloc(home, n)
			}
			if got != want {
				t.Fatalf("wpl %d alloc %d: addr %d, want %d", wpl, i, got, want)
			}
		}
		ref.check(t, m)
	}
}

// FuzzAllocLayout drives Alloc, AllocLines, Poke and LabelRange from a
// byte string and compares addresses, homes and the arena's size with the
// reference. Poke and the labels must not disturb the layout; the words
// they wrote are cleared again so the reference's all-zero check holds.
func FuzzAllocLayout(f *testing.F) {
	for _, wpl := range []byte{1, 2, 4, 8} {
		rng := sim.NewRNG(uint64(wpl))
		seed := []byte{wpl}
		for i := 0; i < 64; i++ {
			seed = append(seed, byte(rng.Intn(256)))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		m := wideLines()
		m.cfg.WordsPerLine = 1 + int(ops[0])%8
		ref := newRefArena(m)
		var last Addr
		for i := 1; i+1 < len(ops); i += 2 {
			home, n := int(ops[i]>>4)%2, 1+int(ops[i+1])%12
			var got, want Addr
			switch ops[i] % 4 {
			case 0, 1:
				got, want = m.Alloc(home, n), ref.alloc(home, n)
			case 2:
				flip := func(k int) int { return (home + k) % 2 }
				got, want = m.AllocLines(n, flip), ref.allocLines(n, flip)
			case 3:
				if last == NilAddr {
					continue
				}
				m.Poke(last, uint64(n))
				m.Poke(last, 0)
				m.LabelRange(last, 1, "fuzz")
				continue
			}
			if got != want {
				t.Fatalf("op %d: addr %d, want %d", i, got, want)
			}
			last = got
		}
		ref.check(t, m)
	})
}
