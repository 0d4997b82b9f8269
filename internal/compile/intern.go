package compile

import "strings"

// Interner deduplicates string spellings. Kernel sources repeat the same
// identifiers (loop variables, buffer names, type names) thousands of
// times across compilations; interning makes every occurrence share one
// heap copy and turns the per-token allocation into a map probe.
//
// Not safe for concurrent use (it lives inside a Scratch, which is
// per-goroutine by contract).
type Interner struct {
	m map[string]string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string, 256)}
}

// Intern returns the canonical string for b, allocating it only on first
// sight. The map lookup with a []byte key compiles to a no-alloc probe.
func (in *Interner) Intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	in.m[s] = s
	return s
}

// InternString is Intern for an already-materialized string (e.g. a
// substring of the source text). On first sight it stores a copy of s,
// so the interner, which lives as long as its Scratch, never keeps the
// string s points into (a whole kernel source) alive.
func (in *Interner) InternString(s string) string {
	if c, ok := in.m[s]; ok {
		return c
	}
	c := strings.Clone(s)
	in.m[c] = c
	return c
}

// Len reports how many distinct strings are interned.
func (in *Interner) Len() int { return len(in.m) }
