package dse

import (
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/merlin"
	"s2fa/internal/obs"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// NewEvaluator builds the design-point evaluator used throughout the DSE:
// design point -> Merlin annotation -> HLS estimation. The objective is
// estimated kernel execution seconds for a batch of n tasks (cycles over
// achieved frequency). Results are memoized: re-evaluating a synthesized
// configuration costs no additional synthesis time.
func NewEvaluator(k *cir.Kernel, sp *space.Space, dev *fpga.Device, n int64, opt hls.Options) tuner.Evaluator {
	return NewTracedEvaluator(k, sp, dev, n, opt, nil)
}

// pureEval evaluates one point with no cache and no tracing. The bool
// reports whether Merlin rejected the point before estimation, which
// NewTracedEvaluator surfaces in its span args. Rejected results carry a
// nil Meta; estimated ones always carry their hls.Report.
func pureEval(k *cir.Kernel, sp *space.Space, dev *fpga.Device, n int64, opt hls.Options, pt space.Point) (tuner.Result, bool) {
	d := sp.Directives(pt)
	ann, err := merlin.Annotate(k, d)
	if err != nil {
		return tuner.Result{
			Point:     pt,
			Objective: rejectPenalty,
			Feasible:  false,
			Minutes:   1, // rejected before synthesis
		}, true
	}
	rep := hls.Estimate(ann, dev, n, opt)
	obj := rep.Seconds()
	if !rep.Feasible {
		// Graded penalty: infeasible points are never accepted
		// as incumbents, but the learning techniques still see a
		// gradient toward the feasible region (less overflow =
		// smaller penalty), which is how real HLS autotuners
		// escape all-infeasible starting populations.
		obj = infeasiblePenalty * (1 + rep.MaxUtil())
	}
	return tuner.Result{
		Point:     pt,
		Objective: obj,
		Feasible:  rep.Feasible,
		Minutes:   rep.SynthMinutes,
		Meta:      rep,
	}, false
}

// NewTracedEvaluator is NewEvaluator with an "hls"/"estimate" span around
// every invocation: cache hits close immediately with cache=hit, fresh
// estimations carry the Merlin + estimator work and close with the
// synthesis minutes and feasibility verdict. With tr == nil it behaves —
// and costs — exactly like NewEvaluator. The evaluator is for one
// goroutine: its memo is a plain map.
func NewTracedEvaluator(k *cir.Kernel, sp *space.Space, dev *fpga.Device, n int64, opt hls.Options, tr *obs.Trace) tuner.Evaluator {
	cache := map[string]tuner.Result{}
	return func(pt space.Point) tuner.Result {
		key := pt.Key()
		if r, ok := cache[key]; ok {
			r.Point = pt
			r.Minutes = 0 // cached HLS report, no synthesis re-run
			if tr != nil {
				hit := tr.Begin("hls", "estimate",
					obs.Str("point", key), obs.Str("cache", "hit"))
				hit.End(obs.F64("synth_min", 0), obs.Bool("feasible", r.Feasible))
				tr.Count("hls.cache_hits", 1)
			}
			return r
		}
		var span *obs.Span
		if tr != nil {
			span = tr.Begin("hls", "estimate",
				obs.Str("point", key), obs.Str("cache", "fresh"))
			tr.Count("hls.estimations", 1)
		}
		r, rejected := pureEval(k, sp, dev, n, opt, pt)
		span.End(estimateEndKVs(r, rejected)...)
		tr.Observe("hls_synth_minutes", r.Minutes)
		cache[key] = r
		return r
	}
}

// estimateEndKVs builds the closing args of a fresh hls/estimate span:
// synthesis minutes and feasibility always, the Merlin rejection marker
// when the point never reached estimation, and the estimator's
// structured bottleneck verdict (tag + offending access site) when the
// report carries one — the fields `s2fa-report` ranks slow estimations
// by.
func estimateEndKVs(res tuner.Result, rejected bool) []obs.KV {
	kvs := make([]obs.KV, 0, 5)
	if rejected {
		kvs = append(kvs, obs.Str("merlin", "rejected"))
	}
	kvs = append(kvs,
		obs.F64("synth_min", res.Minutes),
		obs.Bool("feasible", res.Feasible))
	if rep, ok := res.Meta.(hls.Report); ok {
		if rep.Bottleneck != "" {
			kvs = append(kvs, obs.Str("bottleneck", rep.Bottleneck))
		}
		if rep.BottleneckSite != "" {
			kvs = append(kvs, obs.Str("bottleneck_site", rep.BottleneckSite))
		}
	}
	return kvs
}

// Penalty objectives (seconds-scale but far above any real design).
const (
	infeasiblePenalty = 1e4
	rejectPenalty     = 1e8
)

// FlatInfeasible wraps an evaluator so that every infeasible point
// returns the same flat penalty, erasing the feasibility gradient. This
// models stock OpenTuner, which learns nothing from failed syntheses —
// the behavior that leaves the vanilla flow "trapped in the infeasible
// design space region" (paper §4.3.2) and that S2FA's seed generation
// exists to avoid.
func FlatInfeasible(eval tuner.Evaluator) tuner.Evaluator {
	return func(pt space.Point) tuner.Result {
		r := eval(pt)
		if !r.Feasible {
			r.Objective = rejectPenalty
		}
		return r
	}
}

// Report extracts the HLS report attached to a result, if any.
func Report(r tuner.Result) (hls.Report, bool) {
	rep, ok := r.Meta.(hls.Report)
	return rep, ok
}
