// Package tuner is an OpenTuner-style program autotuning framework (paper
// §4.2): an ensemble of reinforcement-learning search techniques — uniform
// greedy mutation, a differential-evolution genetic algorithm, particle
// swarm optimization, and simulated annealing — assembled under a
// multi-armed bandit meta-technique that allocates design points to
// whichever technique has recently been effective, rewarding techniques
// that find high-quality points and starving those that do not.
package tuner

import (
	"math"
	"math/rand"

	"s2fa/internal/space"
)

// Result is the outcome of evaluating one design point.
type Result struct {
	Point space.Point
	// Objective is the quantity minimized (S2FA: estimated kernel
	// seconds). Infeasible points carry +Inf.
	Objective float64
	Feasible  bool
	// Minutes is the evaluation cost (HLS synthesis wall-clock) charged
	// to the DSE virtual clock.
	Minutes float64
	// Technique records which search technique proposed the point.
	Technique string
	// Meta carries evaluator-specific detail (e.g. the HLS report).
	Meta any
}

// DB stores every evaluated result and tracks the best feasible point.
type DB struct {
	Results []Result
	seen    map[space.PackedKey]bool
	best    *Result
}

// NewDB returns an empty result database.
func NewDB() *DB {
	return &DB{seen: map[space.PackedKey]bool{}}
}

// Add records a result, updating the incumbent. It returns true when the
// result is a new global best.
func (db *DB) Add(r Result) bool {
	db.Results = append(db.Results, r)
	db.seen[r.Point.Packed()] = true
	if r.Feasible && (db.best == nil || r.Objective < db.best.Objective) {
		cp := r
		db.best = &cp
		return true
	}
	return false
}

// Best returns the incumbent feasible result, or nil.
func (db *DB) Best() *Result {
	return db.best
}

// Seen reports whether the point was already evaluated.
func (db *DB) Seen(pt space.Point) bool { return db.seen[pt.Packed()] }

// Len returns the number of evaluated results.
func (db *DB) Len() int { return len(db.Results) }

// Context is what techniques see when proposing points.
type Context struct {
	Space *space.Space
	DB    *DB
	Rng   *rand.Rand
}

// Seedable is implemented by techniques whose internal state (population,
// swarm, current point) can be primed with an externally evaluated seed
// configuration, the way OpenTuner seeds its techniques with
// user-provided configurations.
type Seedable interface {
	Seed(ctx *Context, r Result)
}

// Technique is one search algorithm in the ensemble.
type Technique interface {
	Name() string
	// Propose returns the next design point to evaluate (never nil; fall
	// back to a random point when the technique has no better idea).
	Propose(ctx *Context) space.Point
	// Feedback delivers the evaluation result of a point this technique
	// proposed.
	Feedback(ctx *Context, r Result)
}

// mutate returns a copy of pt with n randomly chosen parameters replaced
// by uniform random domain values.
func mutate(ctx *Context, pt space.Point, n int) space.Point {
	out := pt.Clone()
	for i := 0; i < n; i++ {
		j := ctx.Rng.Intn(len(ctx.Space.Params))
		out.Set(j, ctx.Space.Params[j].Random(ctx.Rng))
	}
	return out
}

// DefaultTechniques returns the ensemble named in the paper (§4.2) plus
// OpenTuner's pattern-search hill climber, which the bandit arbitrates
// like the rest.
func DefaultTechniques(rng *rand.Rand) []Technique {
	return []Technique{
		NewGreedyMutation(),
		NewDifferentialEvolution(12, 0.7, 0.9),
		NewPSO(10),
		NewAnnealer(2.0, 0.97),
		NewPatternSearch(),
	}
}

func ordinalPoint(s *space.Space, pt space.Point) []float64 {
	out := make([]float64, len(s.Params))
	for i := range s.Params {
		p := &s.Params[i]
		out[i] = float64(p.Ordinal(pt.At(i)))
	}
	return out
}

func pointFromOrdinals(s *space.Space, ords []float64) space.Point {
	pt := s.NewPoint()
	for i := range s.Params {
		p := &s.Params[i]
		o := int(math.Round(ords[i]))
		if o < 0 {
			o = 0
		}
		if o >= p.Size() {
			o = p.Size() - 1
		}
		pt.Set(i, p.ValueAt(o))
	}
	return pt
}
