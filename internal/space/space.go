// Package space implements S2FA's design-space identification (paper
// §4.1, Table 1). It analyzes a kernel's loop nest and buffer interface
// and produces the tunable parameters:
//
//	buffer bit-width  b = 2^n, 8 < b <= 512          (per array buffer)
//	loop tiling       1 <= t < TC(L)                 (per counted loop)
//	loop parallel     1 <= u < TC(L)                 (per counted loop)
//	loop pipeline     {off, on, flatten}             (per counted loop)
//
// The resulting spaces are enormous (the Smith-Waterman kernel exceeds
// 10^15 points, as the paper notes), which motivates the learning-based
// exploration in internal/dse.
package space

import (
	"fmt"
	"math/rand"

	"s2fa/internal/cir"
	"s2fa/internal/merlin"
)

// FactorKind identifies which design-space factor a parameter controls.
type FactorKind uint8

// Factor kinds (Table 1 rows).
const (
	FactorBitWidth FactorKind = iota
	FactorTile
	FactorParallel
	FactorPipeline
)

func (f FactorKind) String() string {
	switch f {
	case FactorBitWidth:
		return "bitwidth"
	case FactorTile:
		return "tile"
	case FactorParallel:
		return "parallel"
	case FactorPipeline:
		return "pipeline"
	}
	return "?"
}

// Pipeline enum encoding inside a Point.
const (
	PipeOffVal     = 0
	PipeOnVal      = 1
	PipeFlattenVal = 2
)

// Param is one tunable parameter with its domain: either a dense integer
// range [Min, Max] or an explicit enumeration.
type Param struct {
	Name   string
	Kind   FactorKind
	LoopID string // for loop factors
	Buffer string // for bit-width factors
	// Domain: if Enum is non-nil it lists the values; otherwise the
	// domain is the dense range [Min, Max].
	Min, Max int
	Enum     []int
	// Depth is the loop depth for loop factors (0 = outermost). Partition
	// rules use it.
	Depth int
}

// Size returns the number of values in the domain.
func (p *Param) Size() int {
	if p.Enum != nil {
		return len(p.Enum)
	}
	return p.Max - p.Min + 1
}

// ValueAt maps a domain ordinal in [0, Size()) to a concrete value.
func (p *Param) ValueAt(i int) int {
	if p.Enum != nil {
		return p.Enum[i]
	}
	return p.Min + i
}

// Ordinal maps a concrete value back to its domain ordinal, or -1.
func (p *Param) Ordinal(v int) int {
	if p.Enum != nil {
		for i, e := range p.Enum {
			if e == v {
				return i
			}
		}
		return -1
	}
	if v < p.Min || v > p.Max {
		return -1
	}
	return v - p.Min
}

// Contains reports whether v is in the domain.
func (p *Param) Contains(v int) bool { return p.Ordinal(v) >= 0 }

// Random draws a uniform value from the domain (Table 1's spaces are
// dense integer ranges; OpenTuner samples them uniformly).
func (p *Param) Random(rng *rand.Rand) int {
	return p.ValueAt(rng.Intn(p.Size()))
}

// Clamp returns the in-domain value nearest to v.
func (p *Param) Clamp(v int) int {
	if p.Enum != nil {
		best, bd := p.Enum[0], abs(p.Enum[0]-v)
		for _, e := range p.Enum[1:] {
			if d := abs(e - v); d < bd {
				best, bd = e, d
			}
		}
		return best
	}
	if v < p.Min {
		return p.Min
	}
	if v > p.Max {
		return p.Max
	}
	return v
}

// Space is the identified design space of one kernel.
type Space struct {
	Kernel *cir.Kernel
	Params []Param
	l      *layout
}

// MaxTaskParallel caps the parallel/tiling factors considered for the
// runtime-sized task loop (its trip count is the batch size, unknown at
// compile time).
const MaxTaskParallel = 256

// Identify builds the design space for kernel k, reproducing the analysis
// S2FA performs with ROSE + polyhedral frameworks to realize loop trip
// counts and buffer widths (paper §4.1).
func Identify(k *cir.Kernel) *Space {
	info := cir.Analyze(k)
	var params []Param

	bwEnum := []int{16, 32, 64, 128, 256, 512} // 8 < 2^n <= 512
	for _, p := range k.Params {
		if !p.IsArray {
			continue
		}
		params = append(params, Param{
			Name:   p.Name + ".bitwidth",
			Kind:   FactorBitWidth,
			Buffer: p.Name,
			Enum:   bwEnum,
		})
	}
	for _, li := range info.All {
		l := li.Loop
		maxF := int(li.Trip) - 1
		if l.ID == k.TaskLoopID {
			maxF = MaxTaskParallel
		}
		if maxF < 1 {
			maxF = 1
		}
		params = append(params, Param{
			Name: l.ID + ".tile", Kind: FactorTile, LoopID: l.ID,
			Min: 1, Max: maxInt(1, maxF), Depth: li.Depth,
		}, Param{
			Name: l.ID + ".parallel", Kind: FactorParallel, LoopID: l.ID,
			Min: 1, Max: maxInt(1, maxF), Depth: li.Depth,
		}, Param{
			Name: l.ID + ".pipeline", Kind: FactorPipeline, LoopID: l.ID,
			Enum: []int{PipeOffVal, PipeOnVal, PipeFlattenVal}, Depth: li.Depth,
		})
	}
	return New(k, params)
}

// New returns the space of kernel k over params, building the layout its
// points and every space derived from it share.
func New(k *cir.Kernel, params []Param) *Space {
	return &Space{Kernel: k, Params: params, l: newLayout(params)}
}

// Index returns the position of the named parameter in Params, or -1.
func (s *Space) Index(name string) int {
	if i, ok := s.l.index[name]; ok {
		return i
	}
	return -1
}

// Param returns the named parameter, or nil.
func (s *Space) Param(name string) *Param {
	if i := s.Index(name); i >= 0 {
		return &s.Params[i]
	}
	return nil
}

// Value returns pt's value for Params[i]: by position when pt is a point
// of s's layout, by name otherwise. The zero Point assigns nothing, as an
// infeasible dse.Outcome's best point does.
func (s *Space) Value(pt Point, i int) (int, bool) {
	if pt.l == s.l {
		return pt.vals[i], true
	}
	return pt.Get(s.Params[i].Name)
}

// Cardinality returns the total number of design points as a float (the
// spaces overflow int64; S-W exceeds 10^15).
func (s *Space) Cardinality() float64 {
	total := 1.0
	for i := range s.Params {
		total *= float64(s.Params[i].Size())
	}
	return total
}

// RandomPoint draws a uniform random point.
func (s *Space) RandomPoint(rng *rand.Rand) Point {
	pt := s.NewPoint()
	for i := range s.Params {
		pt.vals[i] = s.Params[i].Random(rng)
	}
	return pt
}

// Validate checks that pt assigns an in-domain value to every parameter.
func (s *Space) Validate(pt Point) error {
	if pt.Len() != len(s.Params) {
		return fmt.Errorf("space: point has %d assignments, space has %d parameters", pt.Len(), len(s.Params))
	}
	for i := range s.Params {
		p := &s.Params[i]
		v, ok := s.Value(pt, i)
		if !ok {
			return fmt.Errorf("space: point missing parameter %q", p.Name)
		}
		if !p.Contains(v) {
			return fmt.Errorf("space: parameter %q value %d outside domain", p.Name, v)
		}
	}
	return nil
}

// Directives converts a design point into Merlin transformation
// directives.
func (s *Space) Directives(pt Point) merlin.Directives {
	d := merlin.Directives{Loops: map[string]cir.LoopOpt{}, BitWidths: map[string]int{}}
	for i := range s.Params {
		p := &s.Params[i]
		v, ok := s.Value(pt, i)
		if !ok {
			continue
		}
		switch p.Kind {
		case FactorBitWidth:
			d.BitWidths[p.Buffer] = v
		case FactorTile:
			opt := d.Loops[p.LoopID]
			opt.Tile = v
			d.Loops[p.LoopID] = opt
		case FactorParallel:
			opt := d.Loops[p.LoopID]
			opt.Parallel = v
			d.Loops[p.LoopID] = opt
		case FactorPipeline:
			opt := d.Loops[p.LoopID]
			opt.Pipeline = PipelineMode(v)
			d.Loops[p.LoopID] = opt
		}
	}
	return d
}

// PipelineMode maps a pipeline factor value to its directive; values
// other than PipeOnVal and PipeFlattenVal mean off.
func PipelineMode(v int) cir.PipelineMode {
	switch v {
	case PipeOnVal:
		return cir.PipeOn
	case PipeFlattenVal:
		return cir.PipeFlatten
	}
	return cir.PipeOff
}

// PerformanceSeed returns the performance-driven seed of paper §4.3.2:
// pipelining enabled for all loops, every parallel factor at 32, buffer
// bit-widths at 512. Aggressive — may be infeasible for complex kernels,
// but slashes DSE iterations when it synthesizes.
func (s *Space) PerformanceSeed() Point {
	pt := s.NewPoint()
	for i := range s.Params {
		p := &s.Params[i]
		switch p.Kind {
		case FactorBitWidth:
			pt.vals[i] = p.Clamp(512)
		case FactorTile:
			pt.vals[i] = p.Clamp(1)
		case FactorParallel:
			pt.vals[i] = p.Clamp(32)
		case FactorPipeline:
			pt.vals[i] = p.Clamp(PipeOnVal)
		}
	}
	return pt
}

// AreaSeed returns the area-driven seed of paper §4.3.2: all
// optimizations disabled, minimum bit-widths — the most conservative
// configuration, guaranteed (modulo device size) to start the search in
// the feasible region.
func (s *Space) AreaSeed() Point {
	pt := s.NewPoint()
	for i := range s.Params {
		p := &s.Params[i]
		switch p.Kind {
		case FactorBitWidth:
			pt.vals[i] = p.Clamp(16)
		case FactorPipeline:
			pt.vals[i] = p.Clamp(PipeOffVal)
		default:
			pt.vals[i] = p.Clamp(1)
		}
	}
	return pt
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
