package dse

import (
	"math"
	"testing"

	"s2fa/internal/tuner"
)

// Table-driven edge cases for the stopping criteria: histories shorter
// than the entropy window, degenerate all-identical objective streams,
// and NaN/Inf objectives (the infeasible penalty is 1e8 and a rejected
// evaluation can surface non-finite values; the criterion must neither
// panic nor poison H(D_i)).
func TestStopperEdgeCases(t *testing.T) {
	const factors = 3
	cases := []struct {
		name    string
		stopper func() Stopper
		result  func(i int) tuner.Result
		iters   int
		// wantStop: whether the stopper must have fired within iters.
		wantStop bool
		// minStopIter: earliest legal firing iteration (1-based; 0 = any).
		minStopIter int
	}{
		{
			// Fewer observations than the entropy streak window can ever
			// need: Consecutive=4 below-threshold diffs require 5 entropy
			// values, so a 4-point history must never fire, however stable.
			name:    "history-shorter-than-window",
			stopper: func() Stopper { return NewEntropyStopper() },
			result: func(i int) tuner.Result {
				return tuner.Result{Point: widePoint(factors, 0), Objective: 100, Feasible: true}
			},
			iters:       4,
			wantStop:    false,
			minStopIter: 0,
		},
		{
			// All-identical objectives with mutating factors: entropy
			// stabilizes, no improvement ever happens — the criterion must
			// fire, but never before the MinIterations floor.
			name:    "all-identical-objectives",
			stopper: func() Stopper { return NewEntropyStopper() },
			result: func(i int) tuner.Result {
				return tuner.Result{Point: widePoint(factors, i), Objective: 100, Feasible: true}
			},
			iters:       100,
			wantStop:    true,
			minStopIter: 12,
		},
		{
			// Identical points AND objectives (a fully converged stream):
			// attempts never accumulate, entropy is constant from the start.
			name:    "all-identical-points",
			stopper: func() Stopper { return NewEntropyStopper() },
			result: func(i int) tuner.Result {
				return tuner.Result{Point: widePoint(factors, 0), Objective: 100, Feasible: true}
			},
			iters:       100,
			wantStop:    true,
			minStopIter: 12,
		},
		{
			// NaN objectives must not panic or keep the search alive
			// forever: NaN compares false everywhere, so it is "no
			// improvement" and the criterion converges on stability alone.
			name:    "nan-objectives",
			stopper: func() Stopper { return NewEntropyStopper() },
			result: func(i int) tuner.Result {
				return tuner.Result{Point: widePoint(factors, i), Objective: math.NaN(), Feasible: false}
			},
			iters:       100,
			wantStop:    true,
			minStopIter: 12,
		},
		{
			// +Inf objectives (unbounded penalty): same contract as NaN.
			name:    "inf-objectives",
			stopper: func() Stopper { return NewEntropyStopper() },
			result: func(i int) tuner.Result {
				return tuner.Result{Point: widePoint(factors, i), Objective: math.Inf(1), Feasible: false}
			},
			iters:       100,
			wantStop:    true,
			minStopIter: 12,
		},
		{
			// Steady meaningful descent (>1% per step): the criterion must
			// NOT fire while the search is still visibly improving.
			name:    "steady-descent-stays-alive",
			stopper: func() Stopper { return NewEntropyStopper() },
			result: func(i int) tuner.Result {
				return tuner.Result{Point: widePoint(factors, i), Objective: 100 * math.Pow(0.95, float64(i)), Feasible: true}
			},
			iters:    40,
			wantStop: false,
		},
		{
			// TrivialStopper with NaN objectives: NaN never registers as a
			// new best, so patience runs out at the floor.
			name:    "trivial-nan-objectives",
			stopper: func() Stopper { return NewTrivialStopper() },
			result: func(i int) tuner.Result {
				return tuner.Result{Point: widePoint(factors, i), Objective: math.NaN(), Feasible: false}
			},
			iters:       100,
			wantStop:    true,
			minStopIter: 12,
		},
		{
			// TrivialStopper patience window longer than the history: 9
			// misses against Patience=10 must not fire.
			name: "trivial-history-shorter-than-patience",
			stopper: func() Stopper {
				return &TrivialStopper{Patience: 10, MinIterations: 1}
			},
			result: func(i int) tuner.Result {
				return tuner.Result{Point: widePoint(factors, i), Objective: 100, Feasible: true}
			},
			iters:    9,
			wantStop: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.stopper().Clone() // exercised the way the scheduler uses it
			stoppedAt := -1
			for i := 0; i < tc.iters; i++ {
				if st.Observe(tc.result(i), false) {
					stoppedAt = i + 1
					break
				}
			}
			if tc.wantStop && stoppedAt < 0 {
				t.Fatalf("never fired within %d iterations", tc.iters)
			}
			if !tc.wantStop && stoppedAt >= 0 {
				t.Fatalf("fired at iteration %d, want never", stoppedAt)
			}
			if tc.minStopIter > 0 && stoppedAt >= 0 && stoppedAt < tc.minStopIter {
				t.Fatalf("fired at iteration %d, before the floor %d", stoppedAt, tc.minStopIter)
			}
			if es, ok := st.(*EntropyStopper); ok && es.hValid {
				if math.IsNaN(es.prevH) || math.IsInf(es.prevH, 0) {
					t.Fatalf("entropy became non-finite: %v", es.prevH)
				}
			}
		})
	}
}

// TestEntropyStopperEntropyFiniteUnderDegenerateCounts drives entropy()
// directly through the degenerate count states (no attempts at all,
// one dominant factor) and requires a finite value every time.
func TestEntropyStopperEntropyFiniteUnderDegenerateCounts(t *testing.T) {
	e := NewEntropyStopper()
	if h := e.entropy(); h != 0 {
		t.Fatalf("entropy of empty factor set = %v, want 0", h)
	}
	e.order = []int{0, 1, 2}
	e.attempts = []float64{0, 0, 0}
	e.uphill = []float64{0, 0, 0}
	if h := e.entropy(); math.IsNaN(h) || math.IsInf(h, 0) {
		t.Fatalf("entropy with zero attempts non-finite: %v", h)
	}
	e.attempts = []float64{1000, 0, 0}
	e.uphill = []float64{1000, 0, 0}
	if h := e.entropy(); math.IsNaN(h) || math.IsInf(h, 0) || h < 0 {
		t.Fatalf("entropy with dominant factor invalid: %v", h)
	}
}
