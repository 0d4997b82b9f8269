package dse

import (
	"reflect"
	"testing"

	"s2fa/internal/depend"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// TestDependPruneEvaluatorShortCircuit checks the verdict collapse in
// isolation: unpipelined parallel lanes on the H-carried Smith-Waterman
// cell loop are a hardware no-op, so the point must be served its
// parallel=1 sibling's report without reaching the inner evaluator,
// while the same factor with pipelining (the wavefront design) passes
// through.
func TestDependPruneEvaluatorShortCircuit(t *testing.T) {
	a, sp := swSetup(t)
	k, _ := a.Kernel()

	innerCalls := 0
	inner := func(pt space.Point) tuner.Result {
		innerCalls++
		return tuner.Result{Point: pt, Objective: 1, Feasible: true, Minutes: 5}
	}
	pruned := 0
	eval := dependPruneEvaluator(depend.Analyze(k), sp, inner, &pruned, nil)

	// Evaluate the canonical sibling first, then the contradicting point:
	// L2 carries the cell recurrence through H, so parallel lanes without
	// a pipeline provably serialize and share the sibling's report.
	sibling := sp.AreaSeed()
	setParam(sp, sibling, "L2.parallel", 1)
	setParam(sp, sibling, "L2.pipeline", space.PipeOffVal)
	eval(sibling)
	if innerCalls != 1 {
		t.Fatalf("canonical sibling: innerCalls=%d, want 1", innerCalls)
	}

	contradicting := sp.AreaSeed()
	setParam(sp, contradicting, "L2.parallel", 4)
	setParam(sp, contradicting, "L2.pipeline", space.PipeOffVal)
	r := eval(contradicting)
	if pruned != 1 || innerCalls != 1 {
		t.Fatalf("contradicting point: pruned=%d innerCalls=%d, want 1/1", pruned, innerCalls)
	}
	if !r.Feasible || r.Objective != 1 || r.Minutes != 5 {
		t.Errorf("collapsed result = %+v, want the sibling's report at full minutes", r)
	}
	if !reflect.DeepEqual(r.Point, contradicting) {
		t.Errorf("collapsed result kept point %v, want the evaluated point %v", r.Point, contradicting)
	}

	// An exact repeat is a memoized report: no synthesis minutes, counter
	// unchanged.
	rr := eval(contradicting)
	if pruned != 1 || innerCalls != 1 || rr.Minutes != 0 {
		t.Errorf("repeat: pruned=%d innerCalls=%d minutes=%v, want 1/1/0", pruned, innerCalls, rr.Minutes)
	}

	// The wavefront variant — same lanes, pipelined — is the profitable
	// S-W design and must never collapse.
	wavefront := sp.AreaSeed()
	setParam(sp, wavefront, "L2.parallel", 4)
	setParam(sp, wavefront, "L2.pipeline", space.PipeOnVal)
	rw := eval(wavefront)
	if innerCalls != 2 || pruned != 1 {
		t.Errorf("wavefront point: innerCalls=%d pruned=%d, want a fresh inner call and counter unchanged", innerCalls, pruned)
	}
	if !rw.Feasible || rw.Minutes != 5 {
		t.Errorf("wavefront result not passed through: %+v", rw)
	}
}

// TestDependPruneFewerEstimationsSameBest is the ISSUE acceptance
// criterion: on S-W at seed 42, dependence-driven pruning must cut fresh
// HLS estimations below the prior 147 while arriving at a byte-identical
// best design.
func TestDependPruneFewerEstimationsSameBest(t *testing.T) {
	a, sp0 := swSetup(t)
	k, _ := a.Kernel()
	_ = sp0

	run := func(prune bool) *Outcome {
		sp := space.Identify(k)
		eval := NewEvaluator(k, sp, fpga.VU9P(), int64(a.Tasks), hls.Options{})
		cfg := S2FAConfig(42)
		cfg.DependPrune = prune
		return Run(k, sp, eval, cfg)
	}
	base, guarded := run(false), run(true)

	if base.DependPruned != 0 {
		t.Errorf("unguarded run reported dependence pruning: %d", base.DependPruned)
	}
	if guarded.DependPruned == 0 {
		t.Error("guarded run pruned nothing; S-W proposes unpipelined parallel lanes on carried loops")
	}
	if !reflect.DeepEqual(base.Best.Point, guarded.Best.Point) {
		t.Errorf("best point changed:\n  base    %v\n  guarded %v", base.Best.Point, guarded.Best.Point)
	}
	if base.Best.Objective != guarded.Best.Objective {
		t.Errorf("best objective changed: %v -> %v", base.Best.Objective, guarded.Best.Objective)
	}
	if !reflect.DeepEqual(base.Trajectory, guarded.Trajectory) {
		t.Errorf("trajectory changed:\n  base    %v\n  guarded %v", base.Trajectory, guarded.Trajectory)
	}
	if base.Evaluations != guarded.Evaluations {
		t.Errorf("evaluation count changed: %d -> %d", base.Evaluations, guarded.Evaluations)
	}
	baseHLS := base.Evaluations - base.StaticallyPruned - base.AccessPruned - base.RangeCollapsed
	guardedHLS := guarded.Evaluations - guarded.StaticallyPruned - guarded.DependPruned -
		guarded.AccessPruned - guarded.RangeCollapsed
	if guardedHLS >= 147 {
		t.Errorf("fresh HLS estimations = %d, want < 147 (pre-verdict reference)", guardedHLS)
	}
	if guardedHLS >= baseHLS {
		t.Errorf("pruning saved no estimations: %d vs %d", guardedHLS, baseHLS)
	}
	t.Logf("S-W seed 42: fresh HLS estimations %d -> %d (depend-pruned %d)",
		baseHLS, guardedHLS, guarded.DependPruned)
}
