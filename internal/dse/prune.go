package dse

import (
	"sync"

	"s2fa/internal/cir"
	"s2fa/internal/depend"
	"s2fa/internal/lint"
	"s2fa/internal/obs"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// pruneMinutes is the virtual cost of a static rejection: a compiler
// check, microseconds of real work, against minutes for an HLS run. Kept
// slightly above zero so pruned proposals still advance the virtual
// clock (a worker cannot loop infinitely for free).
const pruneMinutes = 0.001

// staticPruneEvaluator wraps an evaluator with the lint legality pass
// (pass 4): a point whose directives carry a lint *error* is rejected for
// pruneMinutes instead of being handed to Merlin + the HLS estimator. By
// the lint severity contract those points are exactly the ones the inner
// evaluator would have rejected anyway (annotate error or flatten
// infeasibility), so pruning never changes which designs are reachable —
// only how much virtual time illegal proposals burn. counter tallies the
// skips.
func staticPruneEvaluator(k *cir.Kernel, sp *space.Space, inner tuner.Evaluator, counter *int, tr *obs.Trace) tuner.Evaluator {
	chk := lint.NewChecker(k)
	// The checker is read-only after construction; the mutex only guards
	// the skip counter so the wrapper is safe for concurrent callers.
	var mu sync.Mutex
	return func(pt space.Point) tuner.Result {
		d := sp.Directives(pt)
		if chk.Directives(d.Loops, d.BitWidths).HasErrors() {
			mu.Lock()
			*counter++
			mu.Unlock()
			if tr != nil {
				tr.Event("dse", "prune", obs.Str("point", pt.Key()))
				tr.Count("dse.pruned", 1)
			}
			return tuner.Result{
				Point:     pt,
				Objective: rejectPenalty,
				Feasible:  false,
				Minutes:   pruneMinutes,
			}
		}
		return inner(pt)
	}
}

// dependPruneEvaluator wraps an evaluator with dependence-verdict
// collapsing (internal/depend): parallel lanes on an unpipelined loop
// whose iterations provably contend on carried arrays are a hardware
// no-op — the scheduler serializes the chain and the binder maps it onto
// a single datapath instance (hls model.inertLanes), so the HLS report
// is identical to the parallel=1 sibling's. Each such point maps to the
// canonical sibling's key: the first evaluation synthesizes, every later
// equivalent point is served its bit-identical report without touching
// Merlin + the estimator. Because the served result is exactly what the
// inner evaluator would have produced, the search trajectory is
// preserved by construction. Pipelined loops never collapse: carried
// lanes there execute as a wavefront (Smith-Waterman's profitable
// design), which the verdicts explicitly permit and the distance-scaled
// II model rewards. counter tallies first-time points served from a
// sibling's report.
func dependPruneEvaluator(dep *depend.Analysis, sp *space.Space, inner tuner.Evaluator, counter *int, tr *obs.Trace) tuner.Evaluator {
	// serial holds the parameter positions of each serializing loop's
	// pipeline and parallel factors (pipe is -1 when the space has no
	// pipeline factor for the loop, which reads as off).
	type serialLoop struct{ pipe, par int }
	var serial []serialLoop
	for _, id := range dep.Order {
		if !dep.Serializing(id) {
			continue
		}
		if par := sp.Index(id + ".parallel"); par >= 0 {
			serial = append(serial, serialLoop{pipe: sp.Index(id + ".pipeline"), par: par})
		}
	}
	// The mutex covers cache/seen/counter; the verdicts are read-only
	// after construction.
	var mu sync.Mutex
	cache := map[space.PackedKey]tuner.Result{}
	seen := map[space.PackedKey]bool{}
	// canonical returns pt's parallel=1 sibling, or the zero Point when pt
	// is its own canonical design.
	canonical := func(pt space.Point) space.Point {
		var canon space.Point
		for _, l := range serial {
			if (l.pipe < 0 || pt.At(l.pipe) == space.PipeOffVal) && pt.At(l.par) > 1 {
				if canon.IsZero() {
					canon = pt.Clone()
				}
				canon.Set(l.par, 1)
			}
		}
		return canon
	}
	return func(pt space.Point) tuner.Result {
		canon := canonical(pt)
		ptKey := pt.Packed()
		key := ptKey
		if !canon.IsZero() {
			key = canon.Packed()
		}
		mu.Lock()
		if r, ok := cache[key]; ok {
			r.Point = pt
			if seen[ptKey] {
				// Exact repeat: a memoized HLS report costs no synthesis
				// re-run, mirroring the inner evaluator's cache.
				r.Minutes = 0
			} else {
				seen[ptKey] = true
				*counter++
				if tr != nil {
					tr.Event("dse", "depend-collapse",
						obs.Str("point", pt.Key()), obs.Str("canonical", canonicalKey(pt, canon)))
					tr.Count("dse.depend_pruned", 1)
				}
			}
			mu.Unlock()
			return r
		}
		seen[ptKey] = true
		mu.Unlock()
		r := inner(pt)
		mu.Lock()
		cache[key] = r
		mu.Unlock()
		return r
	}
}

// canonicalKey is the Key of the design a collapse guard served pt from:
// canon, or pt itself when canon is the zero Point.
func canonicalKey(pt, canon space.Point) string {
	if canon.IsZero() {
		return pt.Key()
	}
	return canon.Key()
}
