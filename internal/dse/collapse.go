package dse

import (
	"sync"

	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/obs"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// rangeCollapseEvaluator wraps an evaluator with value-range-driven
// width-equivalence caching. Two design points that differ only in
// interface bit-widths the HLS model provably cannot distinguish map to
// one canonical key: the first evaluation synthesizes, every later
// equivalent point is served its bit-identical report without touching
// the estimator. Because the served result (objective, feasibility,
// synthesis minutes, HLS report) is exactly what the inner evaluator
// would have produced, the search trajectory is preserved by
// construction — only the number of real HLS estimations drops. counter
// tallies first-time points served from an equivalent design's report.
//
// Equivalence is gated on buffers whose value range the abstract
// interpreter proved (cir.Param.ValKnown): the proof certifies the
// traffic model behind the width conditions below.
func rangeCollapseEvaluator(k *cir.Kernel, sp *space.Space, dev *fpga.Device, inner tuner.Evaluator, counter *int, tr *obs.Trace) tuner.Evaluator {
	eq := newWidthEquiv(k, sp, dev)
	// The mutex covers cache/seen/counter so the wrapper stays safe if
	// callers ever share it across goroutines (the width-equivalence
	// table itself is read-only after construction). Run only calls it
	// from the scheduling goroutine, so it is uncontended there.
	var mu sync.Mutex
	cache := map[space.PackedKey]tuner.Result{}
	seen := map[space.PackedKey]bool{}
	return func(pt space.Point) tuner.Result {
		canon := eq.canonical(pt)
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
					tr.Event("dse", "collapse",
						obs.Str("point", pt.Key()), obs.Str("canonical", canonicalKey(pt, canon)))
					tr.Count("dse.collapsed", 1)
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

// widthEquiv holds the precomputed model quantities behind the width
// equivalence rule. Width appears in exactly three places in the HLS
// model: per-buffer BRAM/LUT lanes (area), the memory initiation
// interval of pipelined task loops, and the aggregate burst throughput
// of unpipelined ones. Two widths are equivalent for a point when all
// three sites provably compute the same value.
type widthEquiv struct {
	k  *cir.Kernel
	sp *space.Space
	// cap is the DDR channel bytes/cycle; floor the aggregate streaming
	// floor in cycles at unit task parallelism (the parallel factor
	// scales payload and floor alike and cancels).
	cap, floor float64
	// tile and pipe are the positions of the task loop's tile and
	// pipeline factors in sp.Params (-1 when absent, which reads as 0).
	tile, pipe int
	widthIdx   []int // FactorBitWidth indices into sp.Params
	bytesOf    map[string]float64
	reduceOut  map[string]bool
}

func newWidthEquiv(k *cir.Kernel, sp *space.Space, dev *fpga.Device) *widthEquiv {
	e := &widthEquiv{
		k: k, sp: sp,
		cap:       float64(dev.DDRBytesPerCycle),
		tile:      sp.Index(k.TaskLoopID + ".tile"),
		pipe:      sp.Index(k.TaskLoopID + ".pipeline"),
		bytesOf:   map[string]float64{},
		reduceOut: map[string]bool{},
	}
	for _, p := range k.Params {
		if !p.IsArray {
			continue
		}
		b := float64(p.Length) * float64(p.Elem.Bits()) / 8
		e.bytesOf[p.Name] = b
		if p.IsOutput && k.Pattern == cir.PatternReduce {
			e.reduceOut[p.Name] = true
			continue
		}
		e.floor += b
	}
	if e.cap > 0 {
		e.floor /= e.cap
	}
	for i := range sp.Params {
		if sp.Params[i].Kind == space.FactorBitWidth {
			e.widthIdx = append(e.widthIdx, i)
		}
	}
	return e
}

// at returns pt's value at position i, 0 when i is -1.
func at(pt space.Point, i int) int {
	if i < 0 {
		return 0
	}
	return pt.At(i)
}

// canonical returns pt's width-canonical sibling: each proven-range
// buffer's width is lowered to the smallest domain value the model cannot
// distinguish from it. It returns the zero Point when pt is its own
// canonical design, as are points outside the rule's scope (task loop
// tiled, no width factors).
func (e *widthEquiv) canonical(pt space.Point) space.Point {
	var canon space.Point
	if len(e.widthIdx) == 0 || e.cap <= 0 || at(pt, e.tile) > 1 {
		return canon
	}
	pipe := at(pt, e.pipe)
	for _, i := range e.widthIdx {
		wp := &e.sp.Params[i]
		w := pt.At(i)
		buf := e.k.Param(wp.Buffer)
		if buf == nil || !buf.ValKnown {
			continue
		}
		for ord := 0; ord < wp.Size(); ord++ {
			cand := wp.ValueAt(ord)
			if cand >= w {
				break
			}
			if lanesOf(cand) != lanesOf(w) {
				continue // different BRAM/LUT lanes: area differs
			}
			if !e.sameInterface(pt, wp.Buffer, cand, w, pipe) {
				continue
			}
			if canon.IsZero() {
				canon = pt.Clone()
			}
			canon.Set(i, cand)
			break
		}
	}
	return canon
}

// sameInterface reports whether widths w1 and w2 on buffer buf yield the
// same interface timing for a point whose task loop carries the given
// pipeline mode. Pipelined (and flattened) task loops are bounded by the
// memory initiation interval: once streaming the buffer's payload fits
// under the aggregate DDR floor at both widths, the channel — not the
// port — sets the II. Unpipelined task loops pay blocking bursts at the
// aggregate interface throughput, which the DDR channel caps: if the
// aggregate saturates the cap at both widths the burst time is equal.
func (e *widthEquiv) sameInterface(pt space.Point, buf string, w1, w2, pipe int) bool {
	if pipe == space.PipeOffVal {
		others := 0.0
		for _, i := range e.widthIdx {
			wp := &e.sp.Params[i]
			if wp.Buffer == buf {
				continue
			}
			others += float64(pt.At(i)) / 8
		}
		return others+float64(w1)/8 >= e.cap && others+float64(w2)/8 >= e.cap
	}
	if e.reduceOut[buf] {
		// Task-invariant accumulators are excluded from per-task
		// streaming; their port width never reaches the II.
		return true
	}
	b := e.bytesOf[buf]
	return b*8/float64(w1) <= e.floor && b*8/float64(w2) <= e.floor
}

// lanesOf mirrors the HLS area model's BRAM/LUT lane count for an
// interface width.
func lanesOf(w int) int {
	if l := w / 72; l > 1 {
		return l
	}
	return 1
}
