package dse

import (
	"sync"

	"s2fa/internal/access"
	"s2fa/internal/obs"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// accessPruneEvaluator wraps an evaluator with access-pattern collapsing
// (internal/access): a loop issuing a direct per-iteration accesses to a
// banked on-chip array can keep at most floor(128/a) parallel lanes fed
// (64 banks x 2 ports — hls model.laneCap), and the binder never
// instantiates datapaths the BRAM ports cannot feed. Parallel factors
// above the cap therefore produce the cap-sibling's schedule and area
// exactly, so such points map onto a canonical clamped key: the first
// evaluation synthesizes, every later equivalent point is served its
// bit-identical report without touching Merlin + the estimator. The cap
// is a static property of the raw loop structure (Merlin annotation
// never restructures before estimation), so the mapping is valid for
// every pipeline mode. Because the served result is exactly what the
// inner evaluator would have produced, the search trajectory is
// preserved by construction. counter tallies first-time points served
// from a sibling's report.
func accessPruneEvaluator(acc *access.Analysis, sp *space.Space, inner tuner.Evaluator, counter *int, tr *obs.Trace) tuner.Evaluator {
	// capped holds the position of a port-capped loop's parallel factor.
	type capped struct{ par, cap int }
	var caps []capped
	for _, id := range acc.LoopOrder {
		if c := acc.PortCap(id); c > 0 {
			if par := sp.Index(id + ".parallel"); par >= 0 {
				caps = append(caps, capped{par: par, cap: c})
			}
		}
	}
	// The mutex covers cache/seen/counter; the caps are read-only after
	// construction.
	var mu sync.Mutex
	cache := map[space.PackedKey]tuner.Result{}
	seen := map[space.PackedKey]bool{}
	// canonical returns pt's cap-clamped sibling, or the zero Point when
	// pt is its own canonical design.
	canonical := func(pt space.Point) space.Point {
		var canon space.Point
		for _, c := range caps {
			if pt.At(c.par) > c.cap {
				if canon.IsZero() {
					canon = pt.Clone()
				}
				canon.Set(c.par, c.cap)
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
					tr.Event("dse", "access-collapse",
						obs.Str("point", pt.Key()), obs.Str("canonical", canonicalKey(pt, canon)))
					tr.Count("dse.access_pruned", 1)
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
