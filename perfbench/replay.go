package main

import (
	"time"

	"s2fa/internal/access"
	"s2fa/internal/cir"
	"s2fa/internal/depend"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/merlin"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// visitRecorder wraps the tuner.Evaluator a traced request hands to
// dse.Run. Every call becomes a dse.eval.fresh or dse.eval.memo span
// under the run's span (so the run's self time is the time spent outside
// the evaluator: tuner, scheduler and prune wrappers), and the fresh
// points are kept, in visit order, for the replay decomposition.
type visitRecorder struct {
	tr          *tracer
	parent, req int
	seen        map[string]bool
	points      []space.Point
}

func newVisitRecorder(tr *tracer, req int) *visitRecorder {
	return &visitRecorder{tr: tr, req: req, seen: map[string]bool{}}
}

func (v *visitRecorder) wrap(eval tuner.Evaluator) tuner.Evaluator {
	return func(pt space.Point) tuner.Result {
		key := pt.Key()
		fresh := !v.seen[key]
		name := "dse.eval.memo"
		if fresh {
			name = "dse.eval.fresh"
			v.seen[key] = true
			v.points = append(v.points, pt.Clone())
		}
		id := v.tr.begin(name, v.parent, v.req)
		r := eval(pt)
		v.tr.end(id)
		return r
	}
}

// run opens the dse.run span, runs fn (which calls dse.Run with the
// wrapped evaluator) and closes it.
func (v *visitRecorder) run(parent int, fn func()) {
	v.parent = v.tr.begin("dse.run", parent, v.req)
	fn()
	v.tr.end(v.parent)
}

// layerAgg sums replayed layer timings by name. It is used only from the
// goroutine that runs a round's checks.
type layerAgg map[string]*aggCell

type aggCell struct {
	sum time.Duration
	n   int
}

func (a layerAgg) add(name string, d time.Duration, n int) {
	c := a[name]
	if c == nil {
		c = &aggCell{}
		a[name] = c
	}
	c.sum += d
	c.n += n
}

// mean returns the mean of a layer's samples in unit, 0 if none.
func (a layerAgg) mean(name string, unit time.Duration) float64 {
	c := a[name]
	if c == nil || c.n == 0 {
		return 0
	}
	return float64(c.sum) / float64(unit) / float64(c.n)
}

// pointKeyReps repeats the sub-microsecond key computation so one clock
// pair covers enough work to time.
const pointKeyReps = 16

// replayPoints times, outside the program, the work the DSE's evaluator
// did for each fresh design point it visited: the point key, Merlin
// annotation (directive lowering included), HLS estimation, and the
// cir/depend/access analyses estimation runs on the annotated kernel.
func replayPoints(agg layerAgg, k *cir.Kernel, sp *space.Space, dev *fpga.Device, n int64, opt hls.Options, pts []space.Point) {
	for _, pt := range pts {
		t := time.Now()
		for i := 0; i < pointKeyReps; i++ {
			_ = pt.Key()
		}
		agg.add("space.point_key", time.Since(t), pointKeyReps)

		t = time.Now()
		ann, err := merlin.Annotate(k, sp.Directives(pt))
		agg.add("merlin.annotate", time.Since(t), 1)
		if err != nil {
			continue
		}
		t = time.Now()
		hls.Estimate(ann, dev, n, opt)
		agg.add("hls.estimate", time.Since(t), 1)

		t = time.Now()
		cir.Analyze(ann)
		depend.Analyze(ann)
		access.Analyze(ann)
		agg.add("hls.analysis", time.Since(t), 1)
	}
}
