// Package merlin reproduces the Merlin compiler transformation library that
// S2FA uses to turn design-space directives into restructured HLS C (paper
// §3.2, §4.1): loop tiling, coarse-/fine-grained parallelism (unrolling
// with automatic tree reduction for reduction loops), loop pipelining
// (on/off/flatten, where flatten fully unrolls all sub-loops), and
// off-chip buffer bit-width selection.
//
// Each transformation exists in two forms:
//
//   - Annotate: attaches the directive to the IR (cir.LoopOpt / Param
//     .BitWidth). The HLS estimator interprets annotations analytically,
//     exactly like a pragma-driven flow. This is what the DSE uses, since
//     it evaluates thousands of design points.
//   - Materialize: structurally rewrites the AST (real tiling, real
//     unrolling with remainder guards, real flattening, real tree
//     reduction). Materialized kernels execute on the cir evaluator, which
//     is how the test suite proves every transformation is
//     semantics-preserving.
package merlin

import (
	"fmt"
	"sort"

	"s2fa/internal/cir"
)

// Directives is a complete transformation request for one kernel: per-loop
// options keyed by loop ID plus per-buffer interface bit-widths keyed by
// parameter name. It is the bridge between a design point (internal/space)
// and the transformation library.
type Directives struct {
	Loops     map[string]cir.LoopOpt
	BitWidths map[string]int
}

// Clone deep-copies the directive set.
func (d Directives) Clone() Directives {
	out := Directives{Loops: map[string]cir.LoopOpt{}, BitWidths: map[string]int{}}
	for k, v := range d.Loops {
		out.Loops[k] = v
	}
	for k, v := range d.BitWidths {
		out.BitWidths[k] = v
	}
	return out
}

// Annotate returns a clone of k with the directives attached as pragmas.
// Unknown loop IDs or parameters are reported as errors: the design space
// and the kernel must agree. Every directive must pass ValidateLoopOpt or
// ValidateBitWidth, the legality rules callers that price directives
// without annotating (the DSE evaluator) apply too.
func Annotate(k *cir.Kernel, d Directives) (*cir.Kernel, error) {
	out := cir.CloneKernel(k)
	for id, opt := range d.Loops {
		l := out.FindLoop(id)
		if l == nil {
			return nil, fmt.Errorf("merlin: directive for unknown loop %q: %w", id, ErrUnknownLoop)
		}
		if err := ValidateLoopOpt(l, opt); err != nil {
			return nil, err
		}
		l.Opt = opt
	}
	for name, bw := range d.BitWidths {
		p := out.Param(name)
		if p == nil {
			return nil, fmt.Errorf("merlin: bit-width directive for unknown parameter %q: %w", name, ErrUnknownParam)
		}
		if err := ValidateBitWidth(p, bw); err != nil {
			return nil, err
		}
		p.BitWidth = bw
	}
	return out, nil
}

// Materialize returns a clone of k with the directives applied as real
// structural rewrites: tiling splits loops, parallel factors unroll bodies
// (using tree reduction for additive reduction loops), and pipeline
// flatten fully unrolls sub-loops. Pipeline on/off remains an annotation
// (it changes scheduling, not semantics).
//
// Loops are processed outermost-first so that directives target the
// original loop IDs; tiling-created inner loops get derived IDs and take
// no further directives.
func Materialize(k *cir.Kernel, d Directives) (*cir.Kernel, error) {
	out, err := Annotate(k, d)
	if err != nil {
		return nil, err
	}
	// Stable outer-to-inner order: Loops() is preorder.
	ids := make([]string, 0, len(d.Loops))
	for _, l := range out.Loops() {
		if _, ok := d.Loops[l.ID]; ok {
			ids = append(ids, l.ID)
		}
	}
	for _, id := range ids {
		l := out.FindLoop(id)
		if l == nil {
			// The loop was dissolved by an enclosing flatten; its
			// directive is dead (paper Impediment 2: flatten invalidates
			// sub-loop factors).
			continue
		}
		opt := d.Loops[id]
		if opt.Tile > 1 {
			if err := TileLoop(out, id, opt.Tile); err != nil {
				return nil, err
			}
			l = out.FindLoop(id)
		}
		if opt.Pipeline == cir.PipeFlatten {
			if err := FlattenLoop(out, id); err != nil {
				return nil, err
			}
			l = out.FindLoop(id)
		}
		if opt.Parallel > 1 && l != nil {
			if err := UnrollLoop(out, id, opt.Parallel); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// ValidateLoopOpt reports whether Annotate accepts directive opt on loop
// l: no negative factor, and tile and parallel factors within a constant
// trip count.
func ValidateLoopOpt(l *cir.Loop, opt cir.LoopOpt) error {
	tc := l.TripCount()
	if opt.Tile < 0 || opt.Parallel < 0 {
		return fmt.Errorf("merlin: loop %s: negative factor: %w", l.ID, ErrIllegalFactor)
	}
	if tc > 0 {
		if int64(opt.Tile) > tc {
			return fmt.Errorf("merlin: loop %s: tile factor %d exceeds trip count %d: %w", l.ID, opt.Tile, tc, ErrIllegalFactor)
		}
		if int64(opt.Parallel) > tc {
			return fmt.Errorf("merlin: loop %s: parallel factor %d exceeds trip count %d: %w", l.ID, opt.Parallel, tc, ErrIllegalFactor)
		}
	}
	return nil
}

// ValidateBitWidth reports whether Annotate accepts interface width bw on
// parameter p: an array buffer, and a power of two in [8, 512].
func ValidateBitWidth(p *cir.Param, bw int) error {
	if !p.IsArray {
		return fmt.Errorf("merlin: bit-width directive on scalar parameter %q: %w", p.Name, ErrIllegalBitWidth)
	}
	if bw < 8 || bw > 512 {
		return fmt.Errorf("merlin: parameter %q: bit-width %d outside (8, 512]: %w", p.Name, bw, ErrIllegalBitWidth)
	}
	if bw&(bw-1) != 0 {
		return fmt.Errorf("merlin: parameter %q: bit-width %d is not a power of two: %w", p.Name, bw, ErrIllegalBitWidth)
	}
	return nil
}

// replaceLoop substitutes loop id in the kernel body with the given
// statements.
func replaceLoop(k *cir.Kernel, id string, repl []cir.Stmt) bool {
	var walk func(b cir.Block) (cir.Block, bool)
	walk = func(b cir.Block) (cir.Block, bool) {
		for i, s := range b {
			switch s := s.(type) {
			case *cir.Loop:
				if s.ID == id {
					out := make(cir.Block, 0, len(b)-1+len(repl))
					out = append(out, b[:i]...)
					out = append(out, repl...)
					out = append(out, b[i+1:]...)
					return out, true
				}
				if nb, ok := walk(s.Body); ok {
					s.Body = nb
					return b, true
				}
			case *cir.If:
				if nb, ok := walk(s.Then); ok {
					s.Then = nb
					return b, true
				}
				if nb, ok := walk(s.Else); ok {
					s.Else = nb
					return b, true
				}
			case *cir.While:
				if nb, ok := walk(s.Body); ok {
					s.Body = nb
					return b, true
				}
			}
		}
		return b, false
	}
	nb, ok := walk(k.Body)
	if ok {
		k.Body = nb
	}
	return ok
}

// sortedKeys returns map keys in deterministic order (test stability).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
