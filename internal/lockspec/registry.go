package lockspec

// The registry: every lock algorithm both stacks know, in canonical
// order — the paper's eight first (its table order), then the
// extensions in the order they were added. Every entry carries
// transition bodies and instantiates into both stacks from this one
// description, so a lock cannot exist in one stack, name list or doc
// table and not another.
var registry = []*Spec{
	tatasSpec(),
	tatasExpSpec(),
	mcsSpec(),
	clhSpec(),
	rhSpec(),
	hboSpec("HBO", modeHBO),
	hboSpec("HBO_GT", modeGT),
	hboSpec("HBO_GT_SD", modeGTSD),
	ticketSpec(),
	andersonSpec(),
	reactiveSpec(),
	hboSpec("HBO_HIER", modeHier),
	cohortSpec(),
	clhTrySpec(),
	cnaSpec(),
	hmcstSpec(),
}

// All returns every registered algorithm in canonical order.
func All() []*Spec { return registry }

// Lookup returns the named algorithm's spec, or nil.
func Lookup(name string) *Spec {
	for _, s := range registry {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// names filters the registry in order.
func names(keep func(*Spec) bool) []string {
	var out []string
	for _, s := range registry {
		if keep(s) {
			out = append(out, s.Name)
		}
	}
	return out
}

// PaperNames lists the paper's eight algorithms in its table order.
func PaperNames() []string {
	return names(func(s *Spec) bool { return s.Paper })
}

// ExtendedNames lists the algorithms beyond the paper's eight.
func ExtendedNames() []string {
	return names(func(s *Spec) bool { return !s.Paper })
}

// AllNames lists the paper's eight plus the extensions.
func AllNames() []string {
	return names(func(*Spec) bool { return true })
}

// TimedNames lists the algorithms with a genuinely timed, abortable
// acquire, in registry order.
func TimedNames() []string {
	return names(func(s *Spec) bool { return s.Timed })
}

// NUCAAware reports whether the named algorithm exploits node locality
// (the paper's "NUCA-aware" group). Unknown names are not NUCA-aware.
func NUCAAware(name string) bool {
	s := Lookup(name)
	return s != nil && s.NUCA
}

// MarkdownTable renders the registry as the README's lock table. The
// README embeds the output verbatim (TestREADMETableMatchesRegistry
// pins it), so the docs cannot drift from the code: add an algorithm
// and the test fails until the table is regenerated.
func MarkdownTable() string {
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return ""
	}
	out := "| Algorithm | Paper | NUCA | Try | Timed | Description |\n" +
		"|---|---|---|---|---|---|\n"
	for _, s := range registry {
		out += "| `" + s.Name + "` | " + mark(s.Paper) + " | " + mark(s.NUCA) +
			" | " + mark(s.Try) + " | " + mark(s.Timed) + " | " + s.Doc + " |\n"
	}
	return out
}
