package dse

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// memoize replicates the DSE evaluator's cache contract (repeat
// evaluations cost zero synthesis minutes) around a pure synthetic
// evaluator.
func memoize(pure tuner.Evaluator) tuner.Evaluator {
	cache := map[string]tuner.Result{}
	return func(pt space.Point) tuner.Result {
		key := pt.Key()
		if r, ok := cache[key]; ok {
			r.Point = pt
			r.Minutes = 0
			return r
		}
		r := pure(pt)
		cache[key] = r
		return r
	}
}

// assertOutcomesIdentical fails unless the two outcomes match on every
// field of the determinism contract: trajectory, best point, evaluation
// count, stop reason, clocks, and the prune/collapse counters.
func assertOutcomesIdentical(t *testing.T, want, got *Outcome) {
	t.Helper()
	if !reflect.DeepEqual(want.Trajectory, got.Trajectory) {
		t.Fatalf("trajectories differ:\nwant: %+v\ngot:  %+v", want.Trajectory, got.Trajectory)
	}
	if want.Evaluations != got.Evaluations {
		t.Fatalf("evaluations: want %d got %d", want.Evaluations, got.Evaluations)
	}
	if want.StopReason != got.StopReason {
		t.Fatalf("stop reason: want %s got %s", want.StopReason, got.StopReason)
	}
	if want.Best.Point.Key() != got.Best.Point.Key() || want.Best.Objective != got.Best.Objective {
		t.Fatalf("best differs: want %v=%v got %v=%v",
			want.Best.Point, want.Best.Objective, got.Best.Point, got.Best.Objective)
	}
	if want.TotalMinutes != got.TotalMinutes {
		t.Fatalf("total minutes: want %v got %v", want.TotalMinutes, got.TotalMinutes)
	}
	if math.Float64bits(want.FirstFeasible) != math.Float64bits(got.FirstFeasible) ||
		math.Float64bits(want.FirstFeasibleMinutes) != math.Float64bits(got.FirstFeasibleMinutes) {
		t.Fatalf("first feasible: want (%v, %v) got (%v, %v)",
			want.FirstFeasible, want.FirstFeasibleMinutes, got.FirstFeasible, got.FirstFeasibleMinutes)
	}
	if want.StaticallyPruned != got.StaticallyPruned || want.RangeCollapsed != got.RangeCollapsed {
		t.Fatalf("counters: want prune=%d collapse=%d got prune=%d collapse=%d",
			want.StaticallyPruned, want.RangeCollapsed, got.StaticallyPruned, got.RangeCollapsed)
	}
	if want.Summary() != got.Summary() {
		t.Fatalf("summaries differ:\nwant: %s\ngot:  %s", want.Summary(), got.Summary())
	}
}

// concurrentCopies is how many identical runs the parallel tests start
// at once.
const concurrentCopies = 2

// runConcurrently starts concurrentCopies calls of run on their own
// goroutines and returns every outcome. run must build its own space
// and evaluator: those are per-run state.
func runConcurrently(run func() *Outcome) []*Outcome {
	outs := make([]*Outcome, concurrentCopies)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = run()
		}()
	}
	wg.Wait()
	return outs
}

// TestParallelEngineMatchesSequential runs the engine in parallel —
// identical DSEs on concurrent goroutines, the app-level concurrency
// exp.Suite.Warm relies on — at several GOMAXPROCS settings (parN), and
// requires each run to be byte-identical to a run made alone. Run keeps
// all search state per call, so nothing may leak between concurrent
// runs. (internal/apps pins the full app × seed matrix to a golden.)
func TestParallelEngineMatchesSequential(t *testing.T) {
	dev := fpga.VU9P()
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)
	for _, name := range []string{"KMeans", "S-W"} {
		a := apps.Get(name)
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 42} {
			cfg := S2FAConfig(seed)
			cfg.Device = dev
			run := func() *Outcome {
				sp := space.Identify(k)
				return Run(k, sp, NewEvaluator(k, sp, dev, int64(a.Tasks), hls.Options{}), cfg)
			}
			alone := run()
			for _, par := range []int{1, 4, 16} {
				if testing.Short() && par != 4 {
					continue
				}
				t.Run(fmt.Sprintf("%s/seed%d/par%d", name, seed, par), func(t *testing.T) {
					runtime.GOMAXPROCS(par)
					for _, out := range runConcurrently(run) {
						assertOutcomesIdentical(t, alone, out)
					}
				})
			}
		}
	}
}

// TestParallelEngineVanillaAndTrivial covers the two baseline
// configurations (no partitioning + flat infeasibility / trivial
// stopper) with concurrent runs.
func TestParallelEngineVanillaAndTrivial(t *testing.T) {
	dev := fpga.VU9P()
	a := apps.Get("KMeans")
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		flat bool
	}{
		{"vanilla", VanillaConfig(7), true},
		{"trivial", TrivialStopConfig(7), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() *Outcome {
				sp := space.Identify(k)
				eval := NewEvaluator(k, sp, dev, int64(a.Tasks), hls.Options{})
				if tc.flat {
					eval = FlatInfeasible(eval)
				}
				return Run(k, sp, eval, tc.cfg)
			}
			alone := run()
			for _, out := range runConcurrently(run) {
				assertOutcomesIdentical(t, alone, out)
			}
		})
	}
}

// syntheticPure is a deterministic pure evaluator over any space: the
// objective and synthesis cost are hashed from the point key, with a
// configurable feasibility predicate. It stands in for the HLS model in
// scheduler tests that need exact control of Minutes.
func syntheticPure(minutes float64, feasible func(space.Point) bool) tuner.Evaluator {
	return func(pt space.Point) tuner.Result {
		var h uint64 = 14695981039346656037
		for _, c := range []byte(pt.Key()) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		obj := 1 + float64(h%1000)/1000
		f := feasible == nil || feasible(pt)
		if !f {
			obj = infeasiblePenalty
		}
		return tuner.Result{Point: pt, Objective: obj, Feasible: f, Minutes: minutes}
	}
}

func kernelFor(t *testing.T) *cir.Kernel {
	t.Helper()
	a := apps.Get("KMeans")
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestParallelTimeoutBoundaries drives two simulated workers in parallel
// on the virtual clock, with evaluations of controlled virtual cost,
// through the budget edge cases: an iteration that lands exactly on the
// limit, one that overshoots and pins, and a limit smaller than the
// first evaluation. With no stopper every worker must end pinned at
// exactly the limit, and a second run must repeat the first.
func TestParallelTimeoutBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		minutes float64
		limit   float64
	}{
		{"exactly-at-limit", 10, 40},          // 4 iterations land on the limit
		{"overshoot-pins", 7, 10},             // second iteration pins at the limit
		{"limit-below-first-eval", 30, 10},    // first evaluation already pins
		{"fractional-accumulation", 0.7, 2.0}, // rounding-sensitive accumulation
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := kernelFor(t)
			pure := syntheticPure(tc.minutes, nil)
			cfg := Config{
				Workers:          2,
				TimeLimitMinutes: tc.limit,
				Stopper:          NeverStopper{},
				BatchPerIter:     1,
				Seed:             5,
				MaxEvaluations:   10_000,
			}
			out := Run(k, space.Identify(k), memoize(pure), cfg)
			assertOutcomesIdentical(t, out, Run(k, space.Identify(k), memoize(pure), cfg))
			if out.TotalMinutes != tc.limit {
				t.Fatalf("clock ended at %v, want pinned at the limit %v", out.TotalMinutes, tc.limit)
			}
			if out.StopReason != StopBudgetExhausted {
				t.Fatalf("stop reason %s, want budget-exhausted", out.StopReason)
			}
		})
	}
}

// TestParallelMaxEvaluations checks the evaluation-budget cutoff over
// four parallel simulated workers with batched iterations: the budget
// is checked before each iteration, so the run ends within one batch
// past it.
func TestParallelMaxEvaluations(t *testing.T) {
	k := kernelFor(t)
	pure := syntheticPure(1, nil)
	cfg := Config{
		Workers:          4,
		TimeLimitMinutes: 240,
		Stopper:          NeverStopper{},
		BatchPerIter:     2,
		Seed:             9,
		MaxEvaluations:   37,
	}
	out := Run(k, space.Identify(k), memoize(pure), cfg)
	assertOutcomesIdentical(t, out, Run(k, space.Identify(k), memoize(pure), cfg))
	if out.Evaluations < cfg.MaxEvaluations || out.Evaluations >= cfg.MaxEvaluations+cfg.BatchPerIter {
		t.Fatalf("evaluations = %d, want in [%d, %d)", out.Evaluations, cfg.MaxEvaluations, cfg.MaxEvaluations+cfg.BatchPerIter)
	}
	if out.StopReason != StopBudgetExhausted {
		t.Fatalf("stop reason %s", out.StopReason)
	}
}
