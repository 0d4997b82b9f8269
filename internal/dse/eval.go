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

// pricer lowers design points of sp straight into hls.Design vectors of
// the kernel f describes, so a fresh point is priced without annotating a
// clone of the kernel. It applies the same Merlin legality rules Annotate
// does (merlin.ValidateLoopOpt, merlin.ValidateBitWidth), so it rejects
// exactly the points Annotate rejects.
type pricer struct {
	f  *hls.Facts
	sp *space.Space
	// slot[i] is the position of sp.Params[i]'s loop in f.Info.All, or of
	// its buffer in the kernel's Params; -1 when the kernel has none
	// (Annotate's unknown-loop and unknown-parameter rejections).
	slot []int
	// loops lists the f.Info.All positions some parameter addresses.
	loops []int
	// base is the design before a point's values: the kernel's own
	// directives, with every loop the space addresses reset, as
	// Space.Directives builds each addressed loop's options from zero.
	base hls.Design
}

func newPricer(f *hls.Facts, sp *space.Space) *pricer {
	k := f.Info.Kernel
	p := &pricer{f: f, sp: sp, slot: make([]int, len(sp.Params))}
	p.base = hls.Design{Loops: make([]cir.LoopOpt, len(f.Info.All)), Widths: make([]int, len(k.Params))}
	loopAt := make(map[string]int, len(f.Info.All))
	for i := len(f.Info.All) - 1; i >= 0; i-- {
		loopAt[f.Info.All[i].Loop.ID] = i // the first in preorder wins, like Kernel.FindLoop
		p.base.Loops[i] = f.Info.All[i].Loop.Opt
	}
	for j := range k.Params {
		p.base.Widths[j] = k.Params[j].BitWidth
	}
	addressed := make([]bool, len(f.Info.All))
	for i := range sp.Params {
		prm := &sp.Params[i]
		p.slot[i] = -1
		if prm.Kind == space.FactorBitWidth {
			for j := range k.Params {
				if k.Params[j].Name == prm.Buffer {
					p.slot[i] = j
					break
				}
			}
			continue
		}
		if j, ok := loopAt[prm.LoopID]; ok {
			p.slot[i] = j
			if !addressed[j] {
				addressed[j] = true
				p.loops = append(p.loops, j)
				p.base.Loops[j] = cir.LoopOpt{}
			}
		}
	}
	return p
}

// lower returns pt's design, or false when Merlin would reject pt.
func (p *pricer) lower(pt space.Point) (hls.Design, bool) {
	d := hls.Design{
		Loops:  append([]cir.LoopOpt(nil), p.base.Loops...),
		Widths: append([]int(nil), p.base.Widths...),
	}
	for i := range p.sp.Params {
		v, ok := p.sp.Value(pt, i)
		if !ok {
			continue
		}
		j := p.slot[i]
		if j < 0 {
			return d, false
		}
		switch p.sp.Params[i].Kind {
		case space.FactorBitWidth:
			if merlin.ValidateBitWidth(&p.f.Info.Kernel.Params[j], v) != nil {
				return d, false
			}
			d.Widths[j] = v
		case space.FactorTile:
			d.Loops[j].Tile = v
		case space.FactorParallel:
			d.Loops[j].Parallel = v
		case space.FactorPipeline:
			d.Loops[j].Pipeline = space.PipelineMode(v)
		}
	}
	for _, j := range p.loops {
		if merlin.ValidateLoopOpt(p.f.Info.All[j].Loop, d.Loops[j]) != nil {
			return d, false
		}
	}
	return d, true
}

// pureEval evaluates one point with no cache and no tracing. The bool
// reports whether Merlin rejected the point before estimation, which
// NewTracedEvaluator surfaces in its span args. Rejected results carry a
// nil Meta; estimated ones always carry their hls.Report.
func pureEval(p *pricer, dev *fpga.Device, n int64, opt hls.Options, pt space.Point) (tuner.Result, bool) {
	d, ok := p.lower(pt)
	if !ok {
		return tuner.Result{
			Point:     pt,
			Objective: rejectPenalty,
			Feasible:  false,
			Minutes:   1, // rejected before synthesis
		}, true
	}
	rep := hls.EstimateWith(p.f, d, dev, n, opt)
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
	return NewFactsEvaluator(hls.Analyze(k), sp, dev, n, opt, tr)
}

// NewFactsEvaluator is NewTracedEvaluator for the kernel f was computed
// from (f.Info.Kernel), pricing every fresh point from f
// (hls.EstimateWith) instead of re-analyzing an annotation. Callers that
// already hold the kernel's facts — the compile cache, a suite running
// several DSEs of one app — pass the same f to dse.Config.Facts. The memo
// is keyed by packed point keys, so the evaluator prices the points of
// sp's layout (sp and the spaces derived from it).
func NewFactsEvaluator(f *hls.Facts, sp *space.Space, dev *fpga.Device, n int64, opt hls.Options, tr *obs.Trace) tuner.Evaluator {
	p := newPricer(f, sp)
	cache := map[space.PackedKey]tuner.Result{}
	return func(pt space.Point) tuner.Result {
		key := pt.Packed()
		if r, ok := cache[key]; ok {
			r.Point = pt
			r.Minutes = 0 // cached HLS report, no synthesis re-run
			if tr != nil {
				hit := tr.Begin("hls", "estimate",
					obs.Str("point", pt.Key()), obs.Str("cache", "hit"))
				hit.End(obs.F64("synth_min", 0), obs.Bool("feasible", r.Feasible))
				tr.Count("hls.cache_hits", 1)
			}
			return r
		}
		var span *obs.Span
		if tr != nil {
			span = tr.Begin("hls", "estimate",
				obs.Str("point", pt.Key()), obs.Str("cache", "fresh"))
			tr.Count("hls.estimations", 1)
		}
		r, rejected := pureEval(p, dev, n, opt, pt)
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
