package space

import "fmt"

// Constraint narrows one parameter's domain to the ordinal range
// [LoOrd, HiOrd] (inclusive). Ordinals index Param.ValueAt, so constraints
// compose uniformly across range-valued and enum-valued parameters.
type Constraint struct {
	Param string
	LoOrd int
	HiOrd int
}

func (c Constraint) String() string {
	return fmt.Sprintf("%s in ord[%d..%d]", c.Param, c.LoOrd, c.HiOrd)
}

// Restrict returns a new Space whose parameter domains are narrowed by the
// given constraints. Unconstrained parameters keep their full domains, and
// the new space shares s's layout, so their points are interchangeable. The
// partitions the DSE builds this way are disjoint sub-boxes of the
// original space; their union over a decision tree's leaves is the whole
// space, which is how the paper argues partitioning preserves optimality
// (§4.3.1).
func Restrict(s *Space, cons []Constraint) (*Space, error) {
	out := &Space{Kernel: s.Kernel, Params: make([]Param, 0, len(s.Params)), l: s.l}
	byParam := map[string]Constraint{}
	for _, c := range cons {
		if prev, ok := byParam[c.Param]; ok {
			// Intersect stacked constraints on the same parameter.
			if c.LoOrd < prev.LoOrd {
				c.LoOrd = prev.LoOrd
			}
			if c.HiOrd > prev.HiOrd {
				c.HiOrd = prev.HiOrd
			}
		}
		byParam[c.Param] = c
	}
	for i := range s.Params {
		p := s.Params[i] // copy
		c, ok := byParam[p.Name]
		if ok {
			lo, hi := c.LoOrd, c.HiOrd
			if lo < 0 {
				lo = 0
			}
			if hi > p.Size()-1 {
				hi = p.Size() - 1
			}
			if lo > hi {
				return nil, fmt.Errorf("space: constraint on %q empties the domain", p.Name)
			}
			if p.Enum != nil {
				p.Enum = append([]int(nil), p.Enum[lo:hi+1]...)
			} else {
				p.Min, p.Max = p.Min+lo, p.Min+hi
			}
		}
		out.Params = append(out.Params, p)
	}
	return out, nil
}
