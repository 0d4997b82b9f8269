package dse

import (
	"math"

	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// Stopper decides when a partition's exploration terminates. Observe is
// called after every evaluation with the result and whether it set a new
// partition-local best; it returns true to stop.
type Stopper interface {
	Observe(r tuner.Result, newBest bool) bool
	Clone() Stopper // fresh state for a new partition
}

// EntropyStopper implements the Shannon-entropy early-stopping criterion
// of paper §4.3.3: it tracks the experimental conditional probability that
// mutating each design factor t_j produces an uphill (improved) result
// between consecutive iterations, computes the Shannon entropy H(D_i) of
// that distribution, and stops once |H(D_i) - H(D_{i-1})| <= theta for N
// consecutive iterations — i.e. once the uncertainty about where further
// improvement might come from has stabilized.
type EntropyStopper struct {
	// Theta is the entropy-difference threshold.
	Theta float64
	// Consecutive is the number of below-threshold iterations required
	// (the paper's pulse suppression).
	Consecutive int
	// MinIterations guards against stopping before the estimate means
	// anything.
	MinIterations int

	// attempts and uphill count, per parameter position, the observed
	// changes of each factor and those that improved the objective.
	attempts     []float64
	uphill       []float64
	order        []int // parameter positions in sorted name order
	prevObj      float64
	prevPt       space.Point
	prevH        float64
	hValid       bool
	streak       int
	iters        int
	bestObj      float64
	sinceImprove int
}

// NewEntropyStopper returns the criterion with the framework defaults.
func NewEntropyStopper() *EntropyStopper {
	return &EntropyStopper{Theta: 0.04, Consecutive: 4, MinIterations: 12}
}

// Clone implements Stopper.
func (e *EntropyStopper) Clone() Stopper {
	return &EntropyStopper{Theta: e.Theta, Consecutive: e.Consecutive, MinIterations: e.MinIterations}
}

// Observe implements Stopper.
func (e *EntropyStopper) Observe(r tuner.Result, newBest bool) bool {
	if e.attempts == nil {
		// Register every design factor up front so the entropy estimate
		// moves smoothly as evidence accumulates rather than jumping when
		// a factor is first touched (the paper's pulse suppression). The
		// minimum iteration count scales with the number of factors: the
		// conditional probabilities need at least ~one observation per
		// factor before H(D_i) is meaningful.
		e.attempts = make([]float64, r.Point.Len())
		e.uphill = make([]float64, r.Point.Len())
		e.order = r.Point.SortedOrder()
		dynMin := 2 * r.Point.Len()
		if dynMin > 64 {
			dynMin = 64
		}
		if dynMin > e.MinIterations {
			e.MinIterations = dynMin
		}
	}
	e.iters++
	if !e.prevPt.IsZero() {
		// An "uphill" result must improve meaningfully (>1%): endless
		// sub-percent factor tweaks should not keep the criterion alive.
		improved := r.Feasible && (math.IsInf(e.prevObj, 1) || r.Objective < e.prevObj*0.99)
		for i := range e.attempts {
			if e.prevPt.At(i) != r.Point.At(i) {
				e.attempts[i]++
				if improved {
					e.uphill[i]++
				}
			}
		}
	}
	e.prevPt = r.Point
	e.prevObj = r.Objective

	// Track meaningful improvement of the partition incumbent: the
	// entropy criterion must not fire while the search is still visibly
	// descending (that would be a premature pulse, not convergence).
	if r.Feasible && (e.bestObj == 0 || r.Objective < e.bestObj*0.99) {
		e.bestObj = r.Objective
		e.sinceImprove = 0
	} else {
		e.sinceImprove++
	}

	h := e.entropy()
	stop := false
	if e.hValid {
		if math.Abs(h-e.prevH) <= e.Theta {
			e.streak++
		} else {
			e.streak = 0
		}
		stop = e.iters >= e.MinIterations && e.streak >= e.Consecutive && e.sinceImprove >= 10
	}
	e.prevH = h
	e.hValid = true
	return stop
}

// entropy computes H(D_i) = -sum_j p_j log p_j over the normalized
// conditional uphill probabilities, with Laplace smoothing so untried
// factors keep residual uncertainty. Factors are visited in sorted name
// order: float summation is order-sensitive, so a fixed order, the one
// the stop decisions were first recorded with, keeps H(D_i) reproducible.
func (e *EntropyStopper) entropy() float64 {
	var sum float64
	for _, i := range e.order {
		sum += e.prob(i)
	}
	if sum == 0 {
		return 0
	}
	var h float64
	for _, i := range e.order {
		q := e.prob(i) / sum
		if q > 0 {
			h -= q * math.Log2(q)
		}
	}
	return h
}

// prob is factor i's smoothed conditional uphill probability.
func (e *EntropyStopper) prob(i int) float64 {
	const eps = 0.05
	return (e.uphill[i] + eps) / (e.attempts[i] + 2*eps)
}

// TrivialStopper is the straightforward baseline criterion the paper
// compares against: stop after Patience consecutive iterations without a
// new best result. The evaluation found it terminates about an hour later
// than the entropy criterion for only ~4% average QoR gain (§5.2).
type TrivialStopper struct {
	Patience int
	// MinIterations applies the same minimum exploration floor as the
	// entropy criterion so the two are compared on the criterion itself.
	MinIterations int
	misses        int
	bestSeen      float64
	iters         int
}

// NewTrivialStopper returns the criterion with the paper's setting of 10
// iterations.
func NewTrivialStopper() *TrivialStopper { return &TrivialStopper{Patience: 10, MinIterations: 12} }

// Clone implements Stopper.
func (t *TrivialStopper) Clone() Stopper {
	return &TrivialStopper{Patience: t.Patience, MinIterations: t.MinIterations}
}

// Observe implements Stopper. Any new best — however marginal — resets
// the patience counter, which is precisely the long-tail weakness the
// paper attributes to this criterion: trickles of sub-percent
// improvements keep the search alive for hours.
func (t *TrivialStopper) Observe(r tuner.Result, newBest bool) bool {
	if t.iters == 0 {
		dynMin := 2 * r.Point.Len()
		if dynMin > 64 {
			dynMin = 64
		}
		if dynMin > t.MinIterations {
			t.MinIterations = dynMin
		}
	}
	t.iters++
	if newBest && r.Feasible && (t.bestSeen == 0 || r.Objective < t.bestSeen) {
		t.bestSeen = r.Objective
		t.misses = 0
		return false
	}
	t.misses++
	return t.iters >= t.MinIterations && t.misses >= t.Patience
}

// NeverStopper relies purely on the outer time limit, like vanilla
// OpenTuner ("does not have a systematic stopping criteria but only
// adopts the limitation of either execution time or searched point
// count").
type NeverStopper struct{}

// Clone implements Stopper.
func (NeverStopper) Clone() Stopper { return NeverStopper{} }

// Observe implements Stopper.
func (NeverStopper) Observe(tuner.Result, bool) bool { return false }
