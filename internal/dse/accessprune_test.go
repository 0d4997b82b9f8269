package dse

import (
	"reflect"
	"testing"

	"s2fa/internal/access"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// TestAccessPruneEvaluatorShortCircuit checks the port-cap collapse in
// isolation: the Smith-Waterman cell loop makes four direct accesses to
// the banked H matrix per iteration, so at most 128/4 = 32 lanes can be
// fed and any higher parallel factor must be served the cap-sibling's
// report without reaching the inner evaluator.
func TestAccessPruneEvaluatorShortCircuit(t *testing.T) {
	a, sp := swSetup(t)
	k, _ := a.Kernel()

	if c := access.Analyze(k).PortCap("L2"); c != 32 {
		t.Fatalf("S-W L2 port cap = %d, want 32 (4 direct H accesses, 128 element-ports)", c)
	}

	innerCalls := 0
	inner := func(pt space.Point) tuner.Result {
		innerCalls++
		return tuner.Result{Point: pt, Objective: 1, Feasible: true, Minutes: 5}
	}
	pruned := 0
	eval := accessPruneEvaluator(access.Analyze(k), sp, inner, &pruned, nil)

	sibling := sp.AreaSeed()
	setParam(sp, sibling, "L2.parallel", 32)
	setParam(sp, sibling, "L2.pipeline", space.PipeOnVal)
	eval(sibling)
	if innerCalls != 1 {
		t.Fatalf("cap sibling: innerCalls=%d, want 1", innerCalls)
	}

	starved := sp.AreaSeed()
	setParam(sp, starved, "L2.parallel", 39)
	setParam(sp, starved, "L2.pipeline", space.PipeOnVal)
	r := eval(starved)
	if pruned != 1 || innerCalls != 1 {
		t.Fatalf("port-starved point: pruned=%d innerCalls=%d, want 1/1", pruned, innerCalls)
	}
	if !r.Feasible || r.Objective != 1 || r.Minutes != 5 {
		t.Errorf("collapsed result = %+v, want the sibling's report at full minutes", r)
	}
	if !reflect.DeepEqual(r.Point, starved) {
		t.Errorf("collapsed result kept point %v, want the evaluated point %v", r.Point, starved)
	}

	// An exact repeat is a memoized report: no synthesis minutes, counter
	// unchanged.
	rr := eval(starved)
	if pruned != 1 || innerCalls != 1 || rr.Minutes != 0 {
		t.Errorf("repeat: pruned=%d innerCalls=%d minutes=%v, want 1/1/0", pruned, innerCalls, rr.Minutes)
	}

	// Below the cap every factor buys real lanes; such points must pass
	// through untouched.
	under := sp.AreaSeed()
	setParam(sp, under, "L2.parallel", 27)
	setParam(sp, under, "L2.pipeline", space.PipeOnVal)
	ru := eval(under)
	if innerCalls != 2 || pruned != 1 {
		t.Errorf("under-cap point: innerCalls=%d pruned=%d, want a fresh inner call and counter unchanged", innerCalls, pruned)
	}
	if !ru.Feasible || ru.Minutes != 5 {
		t.Errorf("under-cap result not passed through: %+v", ru)
	}
}

// TestAccessPruneFewerEstimationsSameBest is the ISSUE acceptance
// criterion: on S-W at seed 42, access-pattern pruning must cut fresh
// HLS estimations below the prior 79 while following a byte-identical
// trajectory to a byte-identical best design.
func TestAccessPruneFewerEstimationsSameBest(t *testing.T) {
	a, _ := swSetup(t)
	k, _ := a.Kernel()

	run := func(prune bool) *Outcome {
		sp := space.Identify(k)
		eval := NewEvaluator(k, sp, fpga.VU9P(), int64(a.Tasks), hls.Options{})
		cfg := S2FAConfig(42)
		cfg.AccessPrune = prune
		return Run(k, sp, eval, cfg)
	}
	base, guarded := run(false), run(true)

	if base.AccessPruned != 0 {
		t.Errorf("unguarded run reported access pruning: %d", base.AccessPruned)
	}
	if guarded.AccessPruned == 0 {
		t.Error("guarded run pruned nothing; S-W proposes parallel factors above the L2 port cap")
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
	baseHLS := base.Evaluations - base.StaticallyPruned - base.DependPruned - base.RangeCollapsed
	guardedHLS := guarded.Evaluations - guarded.StaticallyPruned - guarded.DependPruned -
		guarded.AccessPruned - guarded.RangeCollapsed
	if guardedHLS >= 79 {
		t.Errorf("fresh HLS estimations = %d, want < 79 (pre-access reference)", guardedHLS)
	}
	if guardedHLS >= baseHLS {
		t.Errorf("pruning saved no estimations: %d vs %d", guardedHLS, baseHLS)
	}
	t.Logf("S-W seed 42: fresh HLS estimations %d -> %d (access-pruned %d)",
		baseHLS, guardedHLS, guarded.AccessPruned)
}
