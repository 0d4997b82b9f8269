package tuner

import (
	"math"

	"s2fa/internal/space"
)

// GreedyMutation implements uniform greedy mutation: mutate the incumbent
// best configuration in one uniformly chosen parameter. With no incumbent
// it samples uniformly.
type GreedyMutation struct{}

// NewGreedyMutation returns the technique.
func NewGreedyMutation() *GreedyMutation { return &GreedyMutation{} }

// Name implements Technique.
func (g *GreedyMutation) Name() string { return "uniform-greedy-mutation" }

// Propose implements Technique.
func (g *GreedyMutation) Propose(ctx *Context) space.Point {
	best := ctx.DB.Best()
	if best == nil {
		return ctx.Space.RandomPoint(ctx.Rng)
	}
	if ctx.Rng.Float64() < 0.5 {
		// Local move: step one parameter within its neighborhood.
		return neighbor(ctx, best.Point, 1)
	}
	return mutate(ctx, best.Point, 1)
}

// Feedback implements Technique. Greedy mutation is stateless: the DB's
// incumbent is its state.
func (g *GreedyMutation) Feedback(ctx *Context, r Result) {}

// DifferentialEvolution is a DE/rand/1/bin genetic algorithm over the
// ordinal encoding of the design space.
type DifferentialEvolution struct {
	popSize int
	f       float64 // differential weight
	cr      float64 // crossover rate

	pop     []space.Point
	fitness []float64
	next    int // round-robin target index
	pending map[space.PackedKey]int
}

// NewDifferentialEvolution returns a DE technique with the given
// population size, differential weight F, and crossover rate CR.
func NewDifferentialEvolution(popSize int, f, cr float64) *DifferentialEvolution {
	return &DifferentialEvolution{popSize: popSize, f: f, cr: cr, pending: map[space.PackedKey]int{}}
}

// Name implements Technique.
func (d *DifferentialEvolution) Name() string { return "differential-evolution-ga" }

// Propose implements Technique.
func (d *DifferentialEvolution) Propose(ctx *Context) space.Point {
	if len(d.pop) < d.popSize {
		pt := ctx.Space.RandomPoint(ctx.Rng)
		d.pop = append(d.pop, pt)
		d.fitness = append(d.fitness, math.Inf(1))
		d.pending[pt.Packed()] = len(d.pop) - 1
		return pt
	}
	t := d.next % d.popSize
	d.next++
	a, b, c := ctx.Rng.Intn(d.popSize), ctx.Rng.Intn(d.popSize), ctx.Rng.Intn(d.popSize)
	oa := ordinalPoint(ctx.Space, d.pop[a])
	ob := ordinalPoint(ctx.Space, d.pop[b])
	oc := ordinalPoint(ctx.Space, d.pop[c])
	ot := ordinalPoint(ctx.Space, d.pop[t])
	trial := make([]float64, len(ot))
	forced := ctx.Rng.Intn(len(ot))
	for i := range trial {
		if i == forced || ctx.Rng.Float64() < d.cr {
			trial[i] = oa[i] + d.f*(ob[i]-oc[i])
		} else {
			trial[i] = ot[i]
		}
	}
	pt := pointFromOrdinals(ctx.Space, trial)
	d.pending[pt.Packed()] = t
	return pt
}

// Seed implements Seedable: seeds join the population.
func (d *DifferentialEvolution) Seed(ctx *Context, r Result) {
	if len(d.pop) < d.popSize {
		d.pop = append(d.pop, r.Point.Clone())
		d.fitness = append(d.fitness, r.Objective)
		return
	}
	// Replace the worst member when the seed is better.
	worst, worstObj := -1, r.Objective
	for i, f := range d.fitness {
		if f > worstObj {
			worst, worstObj = i, f
		}
	}
	if worst >= 0 {
		d.pop[worst] = r.Point.Clone()
		d.fitness[worst] = r.Objective
	}
}

// Feedback implements Technique: a trial replaces its target when it
// improves on the target's fitness.
func (d *DifferentialEvolution) Feedback(ctx *Context, r Result) {
	key := r.Point.Packed()
	idx, ok := d.pending[key]
	if !ok {
		return
	}
	delete(d.pending, key)
	if idx >= len(d.pop) {
		return
	}
	if r.Objective < d.fitness[idx] || math.IsInf(d.fitness[idx], 1) && r.Feasible {
		d.pop[idx] = r.Point.Clone()
		d.fitness[idx] = r.Objective
	}
}

// PSO is particle swarm optimization over the ordinal encoding.
type PSO struct {
	n         int
	particles []psoParticle
	next      int
	gbest     space.Point
	gbestObj  float64
	pending   map[space.PackedKey]int
}

type psoParticle struct {
	pos, vel []float64
	best     space.Point
	bestObj  float64
}

// NewPSO returns a PSO technique with n particles.
func NewPSO(n int) *PSO {
	return &PSO{n: n, gbestObj: math.Inf(1), pending: map[space.PackedKey]int{}}
}

// Name implements Technique.
func (p *PSO) Name() string { return "particle-swarm" }

// PSO hyperparameters (standard constriction values).
const (
	psoInertia = 0.72
	psoC1      = 1.49
	psoC2      = 1.49
)

// Propose implements Technique.
func (p *PSO) Propose(ctx *Context) space.Point {
	if len(p.particles) < p.n {
		pt := ctx.Space.RandomPoint(ctx.Rng)
		pos := ordinalPoint(ctx.Space, pt)
		vel := make([]float64, len(pos))
		for i := range vel {
			vel[i] = (ctx.Rng.Float64() - 0.5) * float64(ctx.Space.Params[i].Size()) / 4
		}
		p.particles = append(p.particles, psoParticle{pos: pos, vel: vel, best: pt.Clone(), bestObj: math.Inf(1)})
		p.pending[pt.Packed()] = len(p.particles) - 1
		return pt
	}
	i := p.next % len(p.particles)
	p.next++
	part := &p.particles[i]
	pbest := ordinalPoint(ctx.Space, part.best)
	var gbest []float64
	if !p.gbest.IsZero() {
		gbest = ordinalPoint(ctx.Space, p.gbest)
	} else {
		gbest = pbest
	}
	for d := range part.pos {
		r1, r2 := ctx.Rng.Float64(), ctx.Rng.Float64()
		part.vel[d] = psoInertia*part.vel[d] +
			psoC1*r1*(pbest[d]-part.pos[d]) +
			psoC2*r2*(gbest[d]-part.pos[d])
		limit := float64(ctx.Space.Params[d].Size())
		if part.vel[d] > limit/2 {
			part.vel[d] = limit / 2
		}
		if part.vel[d] < -limit/2 {
			part.vel[d] = -limit / 2
		}
		part.pos[d] += part.vel[d]
	}
	pt := pointFromOrdinals(ctx.Space, part.pos)
	p.pending[pt.Packed()] = i
	return pt
}

// Seed implements Seedable: the seed becomes a particle (and the global
// best when feasible).
func (p *PSO) Seed(ctx *Context, r Result) {
	pos := ordinalPoint(ctx.Space, r.Point)
	vel := make([]float64, len(pos))
	for i := range vel {
		vel[i] = (ctx.Rng.Float64() - 0.5) * float64(ctx.Space.Params[i].Size()) / 8
	}
	part := psoParticle{pos: pos, vel: vel, best: r.Point.Clone(), bestObj: r.Objective}
	if len(p.particles) < p.n {
		p.particles = append(p.particles, part)
	} else {
		p.particles[ctx.Rng.Intn(len(p.particles))] = part
	}
	if r.Feasible && r.Objective < p.gbestObj {
		p.gbest = r.Point.Clone()
		p.gbestObj = r.Objective
	}
}

// Feedback implements Technique.
func (p *PSO) Feedback(ctx *Context, r Result) {
	key := r.Point.Packed()
	i, ok := p.pending[key]
	if !ok {
		return
	}
	delete(p.pending, key)
	if i >= len(p.particles) {
		return
	}
	part := &p.particles[i]
	if r.Feasible && r.Objective < part.bestObj {
		part.best = r.Point.Clone()
		part.bestObj = r.Objective
	}
	if r.Feasible && r.Objective < p.gbestObj {
		p.gbest = r.Point.Clone()
		p.gbestObj = r.Objective
	}
}

// Annealer is simulated annealing: a random walk that always accepts
// improvements and accepts regressions with probability exp(-d/T) under a
// geometric cooling schedule.
type Annealer struct {
	temp    float64
	cooling float64
	cur     space.Point
	curObj  float64
	pending space.Point
}

// NewAnnealer returns a simulated-annealing technique with initial
// temperature t0 (relative objective units) and cooling factor per step.
func NewAnnealer(t0, cooling float64) *Annealer {
	return &Annealer{temp: t0, cooling: cooling, curObj: math.Inf(1)}
}

// Name implements Technique.
func (a *Annealer) Name() string { return "simulated-annealing" }

// Seed implements Seedable: the annealer walks from the best seed.
func (a *Annealer) Seed(ctx *Context, r Result) {
	if a.cur.IsZero() || r.Objective < a.curObj {
		a.cur = r.Point.Clone()
		a.curObj = r.Objective
	}
}

// Propose implements Technique.
func (a *Annealer) Propose(ctx *Context) space.Point {
	if a.cur.IsZero() {
		pt := ctx.Space.RandomPoint(ctx.Rng)
		a.pending = pt
		return pt
	}
	steps := 1
	if ctx.Rng.Float64() < 0.3 {
		steps = 2
	}
	pt := neighbor(ctx, a.cur, steps)
	a.pending = pt
	return pt
}

// Feedback implements Technique.
func (a *Annealer) Feedback(ctx *Context, r Result) {
	if a.pending.IsZero() || !r.Point.Equal(a.pending) {
		return
	}
	a.pending = space.Point{}
	accept := false
	switch {
	case a.cur.IsZero() || r.Objective < a.curObj:
		// Improvements (including reduced infeasibility penalty) are
		// always taken; the DB tracks true feasible incumbents
		// separately.
		accept = true
	default:
		rel := (r.Objective - a.curObj) / math.Max(a.curObj, 1e-12)
		accept = ctx.Rng.Float64() < math.Exp(-rel/math.Max(a.temp, 1e-6))
	}
	if accept {
		a.cur = r.Point.Clone()
		a.curObj = r.Objective
	}
	a.temp *= a.cooling
}

// neighbor perturbs pt by moving n parameters a small step in ordinal
// space (local move, unlike mutate's uniform jump).
func neighbor(ctx *Context, pt space.Point, n int) space.Point {
	out := pt.Clone()
	for i := 0; i < n; i++ {
		j := ctx.Rng.Intn(len(ctx.Space.Params))
		p := &ctx.Space.Params[j]
		ord := p.Ordinal(out.At(j))
		if ord < 0 {
			ord = 0
		}
		span := p.Size()/8 + 1
		ord += ctx.Rng.Intn(2*span+1) - span
		if ord < 0 {
			ord = 0
		}
		if ord >= p.Size() {
			ord = p.Size() - 1
		}
		out.Set(j, p.ValueAt(ord))
	}
	return out
}
