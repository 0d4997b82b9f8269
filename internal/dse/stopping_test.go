package dse

import (
	"fmt"
	"testing"

	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// wide returns a design point with n factors, mutating factor (i mod n)
// each call so the stopper sees realistic single-factor moves.
func widePoint(n, i int) space.Point {
	names := make([]string, n)
	vals := make([]int, n)
	for j := range names {
		names[j] = fmt.Sprintf("p%d", j)
		vals[j] = 1
	}
	vals[i%n] = 2 + i
	return fixturePoint(fixtureSpace(names...), vals...)
}

// TestEntropyStopperMinIterationsScalesWithFactors: the exploration floor
// is max(MinIterations, 2*|factors|) capped at 64, so a 40-factor kernel
// must survive at least 64 stagnant iterations.
func TestEntropyStopperMinIterationsScalesWithFactors(t *testing.T) {
	st := NewEntropyStopper().Clone().(*EntropyStopper)
	const factors = 40
	stoppedAt := -1
	for i := 0; i < 200; i++ {
		if st.Observe(tuner.Result{Point: widePoint(factors, i), Objective: 100, Feasible: true}, false) {
			stoppedAt = i + 1
			break
		}
	}
	if stoppedAt < 0 {
		t.Fatal("never stopped on a stagnant 40-factor partition")
	}
	if stoppedAt < 64 {
		t.Errorf("stopped at iteration %d, before the 2*%d-capped-at-64 floor", stoppedAt, factors)
	}
	if st.MinIterations != 64 {
		t.Errorf("MinIterations = %d, want the 64 cap", st.MinIterations)
	}
}

// TestEntropyStopperRespectsImprovementGrace: a fresh best resets the
// since-improvement counter, so the criterion cannot fire within 10
// iterations of visible progress even with a flat entropy signal.
func TestEntropyStopperRespectsImprovementGrace(t *testing.T) {
	st := NewEntropyStopper().Clone().(*EntropyStopper)
	const factors = 3
	// Long stagnation to satisfy floor and streak...
	i := 0
	for ; i < 70; i++ {
		if st.Observe(tuner.Result{Point: widePoint(factors, i), Objective: 100, Feasible: true}, false) {
			break
		}
	}
	// ...then a big improvement: the next 9 observations must not stop.
	st.Observe(tuner.Result{Point: widePoint(factors, i), Objective: 10, Feasible: true}, true)
	for j := 0; j < 9; j++ {
		if st.Observe(tuner.Result{Point: widePoint(factors, i+1+j), Objective: 100, Feasible: true}, false) {
			t.Fatalf("stopped %d iterations after an order-of-magnitude improvement", j+1)
		}
	}
}

// TestEntropyStopperCloneIsFresh: Clone must copy only the configuration,
// never accumulated state.
func TestEntropyStopperCloneIsFresh(t *testing.T) {
	st := NewEntropyStopper()
	st.Theta = 0.1
	st.Consecutive = 7
	for i := 0; i < 30; i++ {
		st.Observe(tuner.Result{Point: widePoint(3, i), Objective: 100, Feasible: true}, false)
	}
	c := st.Clone().(*EntropyStopper)
	if c.Theta != 0.1 || c.Consecutive != 7 {
		t.Errorf("Clone lost configuration: %+v", c)
	}
	if c.iters != 0 || c.attempts != nil || c.streak != 0 {
		t.Errorf("Clone carried state over: %+v", c)
	}
}

// TestTrivialStopperStopsExactlyAtFloor: with stagnation from the first
// iteration, the trivial criterion fires exactly when both the patience
// and the exploration floor are met.
func TestTrivialStopperStopsExactlyAtFloor(t *testing.T) {
	st := NewTrivialStopper().Clone().(*TrivialStopper)
	const factors = 8 // floor = 2*8 = 16 > default 12
	stoppedAt := -1
	for i := 0; i < 100; i++ {
		if st.Observe(tuner.Result{Point: widePoint(factors, i), Objective: 100, Feasible: true}, false) {
			stoppedAt = i + 1
			break
		}
	}
	if stoppedAt != 16 {
		t.Errorf("stopped at iteration %d, want exactly the 2*%d floor = 16", stoppedAt, factors)
	}
}

// TestTrivialStopperLongTail reproduces the weakness §5.2 attributes to
// the baseline: marginal sub-percent improvements reset the patience
// counter every time, keeping the search alive indefinitely — the exact
// behaviour the entropy criterion's 1% threshold filters out.
func TestTrivialStopperLongTail(t *testing.T) {
	st := NewTrivialStopper().Clone().(*TrivialStopper)
	obj := 100.0
	for i := 0; i < 300; i++ {
		if i%(st.Patience-1) == 0 {
			obj *= 0.9999 // a trickle improvement just inside patience
		}
		newBest := i%(st.Patience-1) == 0
		if st.Observe(tuner.Result{Point: widePoint(4, i), Objective: obj, Feasible: true}, newBest) {
			t.Fatalf("trivial criterion fired at %d despite trickle improvements", i)
		}
	}
}

// TestTrivialStopperCloneIsFresh mirrors the entropy clone test.
func TestTrivialStopperCloneIsFresh(t *testing.T) {
	st := &TrivialStopper{Patience: 5, MinIterations: 3}
	// Single-factor points keep the dynamic 2*|factors| floor below the
	// configured one, so the configuration survives Observe unchanged.
	for i := 0; i < 4; i++ {
		st.Observe(tuner.Result{Point: widePoint(1, i), Objective: 100, Feasible: true}, false)
	}
	c := st.Clone().(*TrivialStopper)
	if c.Patience != 5 || c.MinIterations != 3 {
		t.Errorf("Clone lost configuration: %+v", c)
	}
	if c.iters != 0 || c.misses != 0 {
		t.Errorf("Clone carried state over: %+v", c)
	}
}

// TestInfeasibleResultsNeverImprove: infeasible points must not register
// as progress for either criterion.
func TestInfeasibleResultsNeverImprove(t *testing.T) {
	es := NewEntropyStopper().Clone().(*EntropyStopper)
	ts := NewTrivialStopper().Clone().(*TrivialStopper)
	esStopped, tsStopped := false, false
	for i := 0; i < 200 && !(esStopped && tsStopped); i++ {
		// Objectives "improve" every step but nothing is feasible.
		r := tuner.Result{Point: widePoint(3, i), Objective: float64(200 - i), Feasible: false}
		esStopped = esStopped || es.Observe(r, false)
		tsStopped = tsStopped || ts.Observe(r, false)
	}
	if !esStopped {
		t.Error("entropy criterion never fired on an all-infeasible partition")
	}
	if !tsStopped {
		t.Error("trivial criterion never fired on an all-infeasible partition")
	}
}
