package hls

import (
	"fmt"
	"math"

	"s2fa/internal/access"
	"s2fa/internal/cir"
	"s2fa/internal/depend"
	"s2fa/internal/fpga"
)

// Options tunes one estimation run.
type Options struct {
	// StageSplit models an expert-written datapath whose long operation
	// chains (e.g. the sigmoid of logistic regression) are manually split
	// into pipeline stages, lifting the transcendental II floor. Only the
	// manual reference designs use it (paper §5.2).
	StageSplit bool
}

// Report is the outcome of one HLS evaluation of a design point.
type Report struct {
	Feasible bool
	// Reason explains infeasibility (resource overflow, routing
	// congestion, non-constant flatten bounds).
	Reason string
	// Bottleneck is a structured tag naming what bound the estimate:
	// "ii-recurrence" (a carried dependence or scalar recurrence set the
	// initiation interval), "transcendental" (unsplit long datapath),
	// "memory-bound" (aggregate DDR bandwidth), "port-contention" (a
	// single narrow interface port), "compute" (datapath-limited), or —
	// for infeasible points — "resource-overflow", "routing-congestion",
	// "flatten-structure".
	Bottleneck string
	// BottleneckSite names the access site behind a memory-bound or
	// port-contention verdict: the binding interface buffer and — when
	// the access analysis pinned one — the kdsl position of its weakest
	// access. Empty for non-memory bottlenecks.
	BottleneckSite string

	Cycles int64 // total kernel cycles for the evaluated batch
	TaskII float64

	LUT, FF, DSP, BRAM18K              int
	UtilLUT, UtilFF, UtilDSP, UtilBRAM float64
	FreqMHz                            float64

	// BytesPerTask is the host<->card traffic per task.
	BytesPerTask int
	// SynthMinutes is the simulated wall-clock cost of this HLS run,
	// charged to the DSE virtual clock.
	SynthMinutes float64

	tasks int64
}

// Seconds returns the modeled kernel execution time for the evaluated
// batch (excluding transfer).
func (r Report) Seconds() float64 {
	if r.FreqMHz <= 0 {
		return math.Inf(1)
	}
	return float64(r.Cycles) / (r.FreqMHz * 1e6)
}

// MaxUtil returns the highest resource utilization fraction.
func (r Report) MaxUtil() float64 {
	return math.Max(math.Max(r.UtilLUT, r.UtilFF), math.Max(r.UtilDSP, r.UtilBRAM))
}

// Design converts the report into an executable accelerator design for
// the platform model.
func (r Report) Design(name string) *fpga.Design {
	if r.tasks <= 0 {
		return nil
	}
	return &fpga.Design{
		KernelName:    name,
		CyclesPerTask: float64(r.Cycles) / float64(r.tasks),
		FreqMHz:       r.FreqMHz,
		BytesPerTask:  r.BytesPerTask,
	}
}

func (r Report) String() string {
	if !r.Feasible {
		return fmt.Sprintf("infeasible: %s", r.Reason)
	}
	return fmt.Sprintf("cycles=%d II=%.0f freq=%.0fMHz LUT=%.0f%% FF=%.0f%% DSP=%.0f%% BRAM=%.0f%% synth=%.1fmin",
		r.Cycles, r.TaskII, r.FreqMHz, r.UtilLUT*100, r.UtilFF*100, r.UtilDSP*100, r.UtilBRAM*100, r.SynthMinutes)
}

// Facts are the directive-independent analyses the estimator prices a
// kernel's design points from: the loop-nest tree, the dependence
// verdicts and the access-pattern profile. Info is Dep.Info.
type Facts struct {
	Info *cir.KernelInfo
	Dep  *depend.Analysis
	Acc  *access.Analysis
}

// Analyze computes k's facts, walking the loop nest once for both the
// dependence and the access analysis.
func Analyze(k *cir.Kernel) *Facts {
	info := cir.Analyze(k)
	return &Facts{
		Info: info,
		Dep:  depend.AnalyzeWithInfo(k, info, depend.Config{}),
		Acc:  access.AnalyzeWithInfo(k, info),
	}
}

// Design is one design point of a kernel in the form the estimator reads
// it: Loops[i] is the directive of the kernel's i-th loop in preorder
// (aligned with Facts.Info.All) and Widths[j] the interface bit-width of
// its Params[j], 0 meaning the element width.
type Design struct {
	Loops  []cir.LoopOpt
	Widths []int
}

// DesignOf reads the directives of ann, an annotation (merlin.Annotate)
// of the kernel f was computed from, into f's Design layout. It panics
// when ann's loop nest is not f's.
func (f *Facts) DesignOf(ann *cir.Kernel) Design {
	var buf [16]*cir.Loop
	loops := cir.AppendLoops(buf[:0], ann.Body)
	if len(loops) != len(f.Info.All) {
		panic(fmt.Sprintf("hls: kernel %s has %d loops, its facts %d", ann.Name, len(loops), len(f.Info.All)))
	}
	if len(ann.Params) != len(f.Info.Kernel.Params) {
		panic(fmt.Sprintf("hls: kernel %s has %d params, its facts %d", ann.Name, len(ann.Params), len(f.Info.Kernel.Params)))
	}
	d := Design{Loops: make([]cir.LoopOpt, len(loops)), Widths: make([]int, len(ann.Params))}
	for i, li := range f.Info.All {
		if loops[i].ID != li.Loop.ID {
			panic(fmt.Sprintf("hls: kernel %s loop %d is %s, its facts' %s", ann.Name, i, loops[i].ID, li.Loop.ID))
		}
		d.Loops[i] = loops[i].Opt
	}
	for j := range ann.Params {
		d.Widths[j] = ann.Params[j].BitWidth
	}
	return d
}

// Estimate performs high-level synthesis estimation for the annotated
// kernel over a batch of n tasks on the given device, analyzing ann
// afresh. Annotate never restructures and no analysis reads a
// directive, so a caller pricing many design points of one kernel
// analyzes that kernel once and calls EstimateWith instead.
func Estimate(ann *cir.Kernel, dev *fpga.Device, n int64, opt Options) Report {
	f := Analyze(ann)
	return EstimateWith(f, f.DesignOf(ann), dev, n, opt)
}

// EstimateWith prices design d of the kernel f was computed from. It is
// the one pricing path: Estimate lowers an annotated kernel into d, and
// the DSE lowers a design point into d without annotating a clone. The
// result is Estimate's on the equivalent annotation because Annotate
// writes only Loop.Opt and Param.BitWidth and no analysis behind Facts
// reads either field. EstimateWith panics when d does not fit f.
func EstimateWith(f *Facts, d Design, dev *fpga.Device, n int64, opt Options) Report {
	k := f.Info.Kernel
	if len(d.Loops) != len(f.Info.All) || len(d.Widths) != len(k.Params) {
		panic(fmt.Sprintf("hls: design of %d loops, %d widths for kernel %s of %d loops, %d params",
			len(d.Loops), len(d.Widths), k.Name, len(f.Info.All), len(k.Params)))
	}
	m := &model{kernel: k, info: f.Info, dep: f.Dep, acc: f.Acc, dev: dev, n: n, opt: opt, d: d}
	return m.run()
}

type model struct {
	// kernel is the kernel info, dep and acc describe; d carries the
	// directives being priced, read through loopOpt and width.
	kernel *cir.Kernel
	info   *cir.KernelInfo
	dep    *depend.Analysis
	acc    *access.Analysis
	dev    *fpga.Device
	n      int64
	opt    Options
	d      Design

	infeasible     string
	maxRep         int
	hasCarriedPipe bool
	// iiTag names the floor that last raised a stage's initiation
	// interval ("ii-recurrence", "transcendental", "memory-bound",
	// "port-contention"); the outermost loop is scheduled last, so its
	// binding floor wins.
	iiTag string
	// portLimited records whether the task-loop memory II came from a
	// single interface port rather than the aggregate DDR channel.
	portLimited bool
}

// raise lifts *ii to v when v is the new binding floor and records which
// model term did it.
func (m *model) raise(ii *float64, v float64, tag string) {
	if v > *ii {
		*ii = v
		m.iiTag = tag
	}
}

func (m *model) run() Report {
	rep := Report{tasks: m.n}
	rep.BytesPerTask = m.bytesPerTaskOf()

	// Latency.
	var cycles float64 = seqLat(m.info.TopOps)
	for _, r := range m.info.Roots {
		lat, ii := m.loopLat(r)
		cycles += lat
		if r.Loop.ID == m.kernel.TaskLoopID {
			rep.TaskII = ii
		}
	}
	// Global off-chip bandwidth floor: no design streams faster than the
	// DDR channel, which is what leaves AES and PageRank memory-bound
	// (paper §5.2). Gather-only buffers add their per-element latency on
	// top — indirect streams never reach channel bandwidth.
	memFloor := float64(m.n) * float64(rep.BytesPerTask) / float64(m.dev.DDRBytesPerCycle)
	memFloor += float64(m.n) * m.gatherFloor()
	if cycles < memFloor {
		cycles = memFloor
		m.iiTag = "memory-bound"
	}
	// Without manual stage splitting, HLS schedules the transcendental
	// datapath (e.g. the LR sigmoid) as one long fused statement with a
	// minimum initiation interval of 13, and tasks serialize through it
	// (paper §5.2: "the minimal initial interval is still 13"; the manual
	// LR design splits the computation statement into multiple stages).
	if m.info.Roots[0].HasTranscendental && !m.opt.StageSplit {
		if floor := float64(m.n) * transcMinII; cycles < floor {
			cycles = floor
			m.iiTag = "transcendental"
		}
	}
	rep.Cycles = int64(cycles)

	// Resources.
	lut, ff, dsp, bram := m.resources()
	rep.LUT, rep.FF, rep.DSP, rep.BRAM18K = lut, ff, dsp, bram
	rep.UtilLUT = float64(lut) / float64(m.dev.LUT)
	rep.UtilFF = float64(ff) / float64(m.dev.FF)
	rep.UtilDSP = float64(dsp) / float64(m.dev.DSP)
	rep.UtilBRAM = float64(bram) / float64(m.dev.BRAM18K)

	// Synthesis wall-clock model: a few minutes for trivial designs up to
	// about an hour for congested ones (paper Impediment 1).
	rep.SynthMinutes = 1 + 3.5*rep.UtilLUT + 0.35*math.Log2(float64(m.maxRep)+1) +
		float64(m.info.All[0].SubtreeOps.Total())/15000.0
	if rep.SynthMinutes > 12 {
		rep.SynthMinutes = 12
	}

	// Feasibility.
	switch {
	case m.infeasible != "":
		rep.Feasible = false
		rep.Reason = m.infeasible
		rep.Bottleneck = "flatten-structure"
	case rep.MaxUtil() > m.dev.UsableFrac:
		rep.Feasible = false
		rep.Reason = fmt.Sprintf("resource overflow: %.0f%% > %.0f%% usable cap",
			rep.MaxUtil()*100, m.dev.UsableFrac*100)
		rep.Bottleneck = "resource-overflow"
	case m.maxRep > 64 && rep.UtilLUT > 0.55:
		// High duplication with dense logic fails routing (paper §4.3.2:
		// "parallelism with factor 256 ... infeasible for most designs
		// due to high routing complexity" — unless the compute pattern is
		// simple enough to keep congestion low).
		rep.Feasible = false
		rep.Reason = fmt.Sprintf("routing congestion: replication %d at %.0f%% LUT", m.maxRep, rep.UtilLUT*100)
		rep.Bottleneck = "routing-congestion"
	default:
		rep.Feasible = true
		rep.Bottleneck = m.iiTag
		if rep.Bottleneck == "" {
			rep.Bottleneck = "compute"
		}
	}
	if rep.Bottleneck == "memory-bound" || rep.Bottleneck == "port-contention" {
		rep.BottleneckSite = m.bottleneckSite(rep.Bottleneck)
	}
	if !rep.Feasible {
		// Overflowing designs abort during resource mapping, well before
		// a full place-and-route.
		rep.SynthMinutes *= 0.4
	}

	// Frequency model: the 250 MHz target degrades with congestion, and
	// carried-dependence pipelines with long combinational feedback (the
	// Smith-Waterman cell) close timing far lower (paper Table 2: 100 MHz).
	freq := m.dev.BaseClockMHz
	if u := rep.MaxUtil(); u > 0.55 {
		freq -= (u - 0.55) * 150
	}
	if m.hasCarriedPipe {
		if f := m.dev.BaseClockMHz * 0.4; freq > f {
			freq = f
		}
	}
	freq = math.Round(freq/10) * 10
	if freq < 60 {
		freq = 60
	}
	rep.FreqMHz = freq
	return rep
}

// carried returns the loop's effective carried arrays (after the
// reduce-output exemption, straight from the dependence verdicts), the
// minimum proven dependence distance across them, and whether the verdict
// is a conservative Sequential (dependence structure unprovable, so
// iterations must not overlap at all). A distance-d recurrence leaves d
// independent chains interleaving through the feedback path, so the II
// floor scales down by d; unproven distances default to 1, the sound
// minimum.
func (m *model) carried(li *cir.LoopInfo) (arrs []string, dist float64, seq bool) {
	id := li.Loop.ID
	arrs = m.dep.EffectiveRace(id)
	dist = 1
	v := m.dep.Verdict(id)
	if v == nil {
		return arrs, dist, false
	}
	if len(arrs) > 0 {
		var d int64
		for _, a := range arrs {
			dd, ok := v.ArrDist[a]
			if !ok || dd < 1 {
				d = 1
				break
			}
			if d == 0 || dd < d {
				d = dd
			}
		}
		if d >= 1 {
			dist = float64(d)
		}
	}
	return arrs, dist, v.Kind == depend.Sequential
}

// laneCap bounds a loop's useful parallel lanes by the element-port
// budget of the banked on-chip arrays it touches every iteration (see
// access.PortCap): the binder does not replicate datapaths the BRAM
// ports cannot feed, so factors above the cap produce the cap's
// schedule and area. Like inertLanes, this is a model-enforced
// invariant the DSE access collapse relies on: a design with
// parallel=u>cap on such a loop reports identically to its
// parallel=cap sibling.
func (m *model) laneCap(li *cir.LoopInfo) int {
	return m.acc.PortCap(li.Loop.ID)
}

// inertLanes reports whether the loop's parallel directive is a hardware
// no-op: an unpipelined loop whose iterations provably contend on carried
// arrays executes its lanes strictly in series, and the binder maps a
// serial chain onto a single datapath instance. The factor then changes
// neither the schedule nor the area, so a design with parallel=u on such
// a loop yields a report identical to its parallel=1 sibling — the
// invariant the DSE dependence collapse relies on.
func (m *model) inertLanes(li *cir.LoopInfo) bool {
	return m.loopOpt(li).Pipeline == cir.PipeOff && len(m.dep.EffectiveRace(li.Loop.ID)) > 0
}

// loopOpt returns the directives of li's loop.
func (m *model) loopOpt(li *cir.LoopInfo) cir.LoopOpt { return m.d.Loops[li.Index] }

// width returns the interface bit-width of kernel.Params[j], p.
func (m *model) width(j int, p *cir.Param) int {
	if bw := m.d.Widths[j]; bw != 0 {
		return bw
	}
	return p.Elem.Bits()
}

// stage describes one scheduled region: its total latency and its
// occupancy — the number of cycles it is busy per outer-iteration start,
// which is what bounds the initiation interval of an enclosing dataflow
// pipeline.
type stage struct {
	lat float64
	occ float64
	ii  float64 // per-iteration initiation interval (reporting)
}

// loopLat schedules the subtree of li under its annotations, returning
// total latency and the per-iteration initiation interval.
func (m *model) loopLat(li *cir.LoopInfo) (float64, float64) {
	st := m.schedule(li)
	return st.lat, st.ii
}

func (m *model) schedule(li *cir.LoopInfo) stage {
	opt := m.loopOpt(li)
	trip := float64(li.Trip)
	if li.Loop.ID == m.kernel.TaskLoopID {
		trip = float64(m.n)
	}
	if trip <= 0 {
		// Unknown trip count (e.g. a traceback while-loop recovered as a
		// bounded loop): charge a nominal 16 iterations.
		trip = 16
	}
	u := float64(maxInt(1, opt.Parallel))
	if u > trip {
		u = trip
	}
	if c := m.laneCap(li); c > 0 && u > float64(c) {
		u = float64(c)
	}

	switch {
	case opt.Pipeline == cir.PipeFlatten:
		return m.flattenStage(li, trip, u)
	case opt.Pipeline == cir.PipeOn && len(li.Children) == 0:
		// The scheduler never produces a pipeline slower than the
		// sequential schedule (it falls back when II offers no gain).
		return betterStage(m.pipeLeafStage(li, trip, u), m.seqStage(li, trip, u))
	case opt.Pipeline == cir.PipeOn:
		return betterStage(m.dataflowStage(li, trip, u), m.seqStage(li, trip, u))
	default:
		return m.seqStage(li, trip, u)
	}
}

func betterStage(a, b stage) stage {
	if a.lat <= b.lat {
		return a
	}
	return b
}

// pipeLeafStage models a pipelined innermost loop.
func (m *model) pipeLeafStage(li *cir.LoopInfo, trip, u float64) stage {
	bodyDepth := depth(li.BodyOps)
	ii := 1.0
	effTrip := math.Ceil(trip / u)
	if len(li.ScalarRec) > 0 {
		// Recurrence-limited II; with unrolling Merlin applies tree
		// reduction so u elements enter per II.
		m.raise(&ii, seqLat(li.RecOps), "ii-recurrence")
	}
	if arrs, d, seq := m.carried(li); len(arrs) > 0 {
		// Stencil-style dependence (e.g. the Smith-Waterman cell): the
		// feedback path bounds II, and unrolled lanes execute as a
		// wavefront with register forwarding. A proven distance-d
		// recurrence relaxes the floor by d; an unprovable structure
		// serializes iterations outright.
		m.hasCarriedPipe = true
		if seq {
			m.raise(&ii, seqLat(li.BodyOps), "ii-recurrence")
		} else {
			m.raise(&ii, seqLat(li.BodyOps)/6/d, "ii-recurrence")
		}
	}
	if li.HasTranscendental && !m.opt.StageSplit {
		m.raise(&ii, transcMinII, "transcendental")
	}
	m.raiseMem(&ii, li, u)
	lat := bodyDepth + ii*(effTrip-1)
	return stage{lat: lat, occ: ii * effTrip, ii: ii}
}

// dataflowStage models coarse-grained pipelining of a loop with
// sub-loops: Merlin converts the body into a dataflow of stages;
// successive iterations overlap, limited by the busiest stage's
// occupancy.
func (m *model) dataflowStage(li *cir.LoopInfo, trip, u float64) stage {
	var fillSum, maxOcc float64
	for _, c := range li.Children {
		cs := m.schedule(c)
		fillSum += cs.lat
		if cs.occ > maxOcc {
			maxOcc = cs.occ
		}
	}
	bodyDepth := depth(li.BodyOps) + fillSum
	effTrip := math.Ceil(trip / u)
	ii := math.Max(1, maxOcc)
	if len(li.ScalarRec) > 0 {
		m.raise(&ii, seqLat(li.RecOps), "ii-recurrence")
	}
	if arrs, d, seq := m.carried(li); len(arrs) > 0 {
		// Iterations overlap through a carried array dependence only as
		// far as the proven distance allows (d+1 concurrent iterations);
		// unprovable structure forbids overlap entirely.
		m.hasCarriedPipe = true
		if seq {
			m.raise(&ii, bodyDepth, "ii-recurrence")
		} else {
			m.raise(&ii, bodyDepth/(d+1), "ii-recurrence")
		}
	}
	if li.HasTranscendental && !m.opt.StageSplit {
		m.raise(&ii, transcMinII, "transcendental")
	}
	m.raiseMem(&ii, li, u)
	lat := bodyDepth + ii*(effTrip-1)
	return stage{lat: lat, occ: ii * effTrip, ii: ii}
}

// seqStage models an unpipelined loop (with optional unrolling).
func (m *model) seqStage(li *cir.LoopInfo, trip, u float64) stage {
	var childSum float64
	for _, c := range li.Children {
		cs := m.schedule(c)
		childSum += cs.lat
	}
	iter := depth(li.BodyOps) + childSum + 2 // loop control overhead
	effTrip := math.Ceil(trip / u)
	if arrs, _, _ := m.carried(li); len(arrs) > 0 {
		effTrip = trip // lanes serialize
		if m.inertLanes(li) {
			// With the chain serial and no pipeline, the lanes time-share
			// one datapath instance; the factor is inert end to end.
			u = 1
		}
	}
	lat := iter*effTrip + 3
	if len(li.ScalarRec) > 0 && u > 1 {
		lat += math.Log2(u) * float64(defaultLat.FpAdd) // tree combine
	}
	if li.Loop.ID == m.kernel.TaskLoopID {
		// Unpipelined task loop pays a blocking burst per iteration at
		// the configured interface width (capped by the DDR channel).
		perCycle := m.interfaceBytesPerCycle()
		lat += float64(m.bytesPerTaskOf()) / perCycle * effTrip * u
	}
	return stage{lat: lat, occ: lat, ii: iter}
}

// flattenStage models pipeline flatten: the whole sub-nest is fully
// unrolled into one pipelined body. Independent per-iteration work (the
// usual case: a fresh reduction per outer iteration) adds depth, not II.
func (m *model) flattenStage(li *cir.LoopInfo, trip, u float64) stage {
	ops, chain, ok := m.flattenOps(li)
	if !ok {
		m.infeasible = fmt.Sprintf("flatten of loop %s requires constant sub-loop bounds", li.Loop.ID)
		return stage{lat: 1, occ: 1}
	}
	work := seqLat(ops)
	bodyDepth := math.Max(8, 4*math.Log2(work+2)) + chain
	ii := 1.0
	if len(li.ScalarRec) > 0 {
		m.raise(&ii, seqLat(li.RecOps), "ii-recurrence")
	}
	if li.HasTranscendental && !m.opt.StageSplit {
		m.raise(&ii, transcMinII, "transcendental")
	}
	effTrip := math.Ceil(trip / u)
	if arrs, d, seq := m.carried(li); len(arrs) > 0 {
		m.hasCarriedPipe = true
		if seq {
			m.raise(&ii, bodyDepth, "ii-recurrence")
		} else {
			m.raise(&ii, bodyDepth/(d+1), "ii-recurrence")
		}
	}
	m.raiseMem(&ii, li, u)
	lat := bodyDepth + ii*(effTrip-1)
	return stage{lat: lat, occ: ii * effTrip, ii: ii}
}

// flattenOps accumulates the fully unrolled operation count of li's
// subtree and the serialized dependence-chain depth contributed by carried
// sub-loops: stencil-carried sub-loops serialize (trip x chain) while
// reduction sub-loops collapse to balanced trees (log depth). ok=false
// when a sub-loop has an unknown trip count — including a general while
// anywhere in the subtree, which no unroller can flatten (the Merlin
// transformation would fail, so the design point is infeasible).
func (m *model) flattenOps(li *cir.LoopInfo) (cir.OpCount, float64, bool) {
	ops := li.BodyOps
	var chain float64
	if li.HasWhile {
		return ops, 0, false
	}
	for _, c := range li.Children {
		if c.Trip <= 0 {
			return ops, 0, false
		}
		sub, subChain, ok := m.flattenOps(c)
		if !ok {
			return ops, 0, false
		}
		sub.Scale(int(c.Trip))
		ops.Add(sub)
		switch {
		case len(c.CarriedArrays) > 0:
			chain += float64(c.Trip) * math.Max(1, seqLat(c.BodyOps)/4)
		case len(c.ScalarRec) > 0:
			chain += math.Log2(float64(c.Trip)+1) * seqLat(c.RecOps)
		}
		chain += subChain
	}
	return ops, chain, true
}

// interfaceBytesPerCycle returns the aggregate AXI interface throughput
// implied by the buffer bit-width directives, capped by the DDR channel.
func (m *model) interfaceBytesPerCycle() float64 {
	total := 0.0
	for j, p := range m.kernel.Params {
		if !p.IsArray {
			continue
		}
		total += float64(m.width(j, &p)) / 8
	}
	if cap := float64(m.dev.DDRBytesPerCycle); total > cap || total == 0 {
		total = cap
	}
	return total
}

// raiseMem applies the initiation-interval floor imposed by off-chip
// interface bandwidth when li is the task loop (inner loops stream from
// on-chip buffers filled by Merlin-inserted bursts), tagging whether a
// single interface port or the aggregate DDR channel binds.
func (m *model) raiseMem(ii *float64, li *cir.LoopInfo, u float64) {
	if li.Loop.ID != m.kernel.TaskLoopID {
		return
	}
	perPort, aggregate := m.memCycles(u)
	if perPort > aggregate {
		if perPort > *ii {
			m.portLimited = true
		}
		m.raise(ii, perPort, "port-contention")
		return
	}
	m.raise(ii, aggregate, "memory-bound")
}

// gatherBeatCycles is the per-access DDR latency charge for buffers no
// burst engine can service: each indirect access opens its own beat
// instead of riding a staged transfer.
const gatherBeatCycles = 8

// stagedElems returns the element span a burst transfer must cover for
// one task of the buffer: the access analysis' footprint span when the
// buffer is burst-stageable, the full per-task length otherwise.
func (m *model) stagedElems(p *cir.Param) float64 {
	if pr := m.acc.Param(p.Name); pr != nil && pr.Stageable && pr.StageElems < int64(p.Length) {
		return float64(pr.StageElems)
	}
	return float64(p.Length)
}

// gatherOnly reports whether every access to the buffer is a gather or
// affine-opaque, leaving Merlin's burst inference nothing to stage.
func (m *model) gatherOnly(p *cir.Param) *access.ParamProfile {
	if pr := m.acc.Param(p.Name); pr != nil && !pr.Stageable {
		return pr
	}
	return nil
}

// gatherFloor is the per-task cycle cost of the gather-only buffers.
func (m *model) gatherFloor() float64 {
	var c float64
	for _, p := range m.kernel.Params {
		if !p.IsArray {
			continue
		}
		if p.IsOutput && m.kernel.Pattern == cir.PatternReduce {
			continue
		}
		if pr := m.gatherOnly(&p); pr != nil {
			c += float64(pr.Accesses) * gatherBeatCycles
		}
	}
	return c
}

// memCycles returns the per-task-iteration transfer cycles bound by the
// slowest single interface port and by the aggregate DDR channel.
// Burst-stageable buffers move their footprint span at port/channel
// bandwidth; gather-only buffers pay per-element latency, multiplied by
// the lanes issuing them.
func (m *model) memCycles(u float64) (perPort, aggregate float64) {
	var totalBytes, gatherCyc float64
	for j, p := range m.kernel.Params {
		if !p.IsArray {
			continue
		}
		if p.IsOutput && m.kernel.Pattern == cir.PatternReduce {
			continue
		}
		if pr := m.gatherOnly(&p); pr != nil {
			c := float64(pr.Accesses) * gatherBeatCycles * u
			gatherCyc += c
			if c > perPort {
				perPort = c
			}
			continue
		}
		eb := float64(p.Elem.Bits()) / 8
		bytes := m.stagedElems(&p) * eb * u
		totalBytes += bytes
		perCycle := float64(m.width(j, &p)) / 8
		if c := bytes / perCycle; c > perPort {
			perPort = c
		}
	}
	aggregate = totalBytes/float64(m.dev.DDRBytesPerCycle) + gatherCyc
	return perPort, aggregate
}

// bottleneckSite names the interface buffer that binds a memory verdict
// and, when the access analysis pinned one, the kdsl position and class
// of its weakest access site.
func (m *model) bottleneckSite(tag string) string {
	var best string
	var bestCost float64
	var bestPr *access.ParamProfile
	for j, p := range m.kernel.Params {
		if !p.IsArray {
			continue
		}
		if p.IsOutput && m.kernel.Pattern == cir.PatternReduce {
			continue
		}
		pr := m.acc.Param(p.Name)
		var cost float64
		if pr != nil && !pr.Stageable {
			cost = float64(pr.Accesses) * gatherBeatCycles
		} else {
			bytes := m.stagedElems(&p) * float64(p.Elem.Bits()) / 8
			if tag == "port-contention" {
				cost = bytes / (float64(m.width(j, &p)) / 8)
			} else {
				cost = bytes / float64(m.dev.DDRBytesPerCycle)
			}
		}
		if cost > bestCost {
			bestCost, best, bestPr = cost, p.Name, pr
		}
	}
	if best == "" {
		return ""
	}
	if bestPr != nil && bestPr.WorstSite != nil {
		s := bestPr.WorstSite
		if s.Pos.Valid() {
			return fmt.Sprintf("%s (%s @ kdsl %s)", best, s.Class(), s.Pos)
		}
		return fmt.Sprintf("%s (%s)", best, s.Class())
	}
	return best
}

// bytesPerTaskOf returns the streamed off-chip traffic per task: the
// staged footprint span of each streaming buffer. Reduce outputs are
// task-invariant accumulators transferred once per batch and do not
// stream; gather-only buffers still ship whole (the host cannot know
// which elements the card will touch).
func (m *model) bytesPerTaskOf() int {
	total := 0
	for _, p := range m.kernel.Params {
		if !p.IsArray {
			continue
		}
		if p.IsOutput && m.kernel.Pattern == cir.PatternReduce {
			continue
		}
		elems := float64(p.Length)
		if m.gatherOnly(&p) == nil {
			elems = m.stagedElems(&p)
		}
		total += int(elems) * p.Elem.Bits() / 8
	}
	return total
}

// resources walks the loop tree accumulating resource usage under the
// current annotations.
func (m *model) resources() (lut, ff, dsp, bram int) {
	// Base platform/control overhead.
	lut = m.dev.LUT / 50
	ff = m.dev.FF / 50

	addOps := func(ops cir.OpCount, rep int, pipelined bool) {
		fr := 1.0
		if pipelined {
			fr = 1.6 // pipeline registers
		}
		add := func(n int, key string) {
			r := resTable[key]
			lut += n * rep * r.lut
			ff += int(float64(n*rep*r.ff) * fr)
			dsp += n * rep * r.dsp
		}
		add(ops.IntAdd, "intAdd")
		add(ops.IntMul, "intMul")
		add(ops.IntDiv, "intDiv")
		add(ops.FpAdd, "fpAdd")
		add(ops.FpMul, "fpMul")
		add(ops.FpDiv, "fpDiv")
		add(ops.Transc, "transc")
		add(ops.Select, "select")
		add(ops.Loads+ops.Stores, "mem")
	}

	var walk func(li *cir.LoopInfo, rep int)
	walk = func(li *cir.LoopInfo, rep int) {
		opt := m.loopOpt(li)
		u := maxInt(1, opt.Parallel)
		if li.Trip > 0 && int64(u) > li.Trip {
			u = int(li.Trip)
		}
		if c := m.laneCap(li); c > 0 && u > c {
			u = c // port-starved lanes are never instantiated
		}
		if m.inertLanes(li) {
			u = 1 // serial lanes share one instance; no replication
		}
		rep *= u
		if rep > m.maxRep {
			m.maxRep = rep
		}
		pipelined := opt.Pipeline != cir.PipeOff
		if opt.Pipeline == cir.PipeFlatten {
			ops, _, ok := m.flattenOps(li)
			if ok {
				addOps(ops, rep, true)
			}
			if r := rep * int(li.Trip); li.Trip > 0 && r > m.maxRep {
				m.maxRep = r
			}
			return
		}
		addOps(li.BodyOps, rep, pipelined)
		lut += 300 // loop control FSM
		ff += 200
		for _, c := range li.Children {
			walk(c, rep)
		}
	}
	addOps(m.info.TopOps, 1, false)
	taskRep := 1
	for _, r := range m.info.Roots {
		walk(r, 1)
		if r.Loop.ID == m.kernel.TaskLoopID {
			taskRep = maxInt(1, m.loopOpt(r).Parallel)
		}
	}

	// BRAM: local arrays are replicated per task-level processing element
	// and banked for intra-PE parallelism. Banking spreads the same bits
	// over more, shallower BRAMs, so the block count is the larger of the
	// capacity need and the bank count.
	innerBanks := m.maxRep / maxInt(1, taskRep)
	if innerBanks > 64 {
		innerBanks = 64
	}
	if innerBanks < 1 {
		innerBanks = 1
	}
	//determinism:allow order-independent: integer block counts sum commutatively
	for _, bytes := range m.info.LocalArrays {
		blocks := (bytes + bram18kBytes - 1) / bram18kBytes
		if blocks < innerBanks {
			blocks = innerBanks
		}
		bram += blocks * taskRep
	}
	// Constant globals (lookup tables, model weights) are stored in BRAM
	// ROMs, replicated per PE and banked like local arrays.
	for _, g := range m.kernel.Globals {
		bytes := len(g.Data) * g.Elem.Bits() / 8
		blocks := (bytes + bram18kBytes - 1) / bram18kBytes
		if blocks < innerBanks {
			blocks = innerBanks
		}
		bram += blocks * taskRep
	}
	// Interface staging buffers: double-buffered bursts, wider interfaces
	// use more parallel BRAM lanes, and each task-level PE keeps private
	// copies. The task-loop tiling factor sets the burst depth (tasks
	// staged per burst), which is the main effect of the Table 1 tiling
	// factor on the generated designs.
	burstTasks := 64
	if tl := m.info.ByID[m.kernel.TaskLoopID]; tl != nil && m.loopOpt(tl).Tile > 1 {
		burstTasks = m.loopOpt(tl).Tile
		if burstTasks > 256 {
			burstTasks = 256
		}
	}
	for j, p := range m.kernel.Params {
		if !p.IsArray {
			continue
		}
		lanes := maxInt(1, m.width(j, &p)/72)
		burstBytes := p.Length * p.Elem.Bits() / 8 * burstTasks
		blocks := (burstBytes + bram18kBytes - 1) / bram18kBytes
		if blocks < 1 {
			blocks = 1
		}
		bram += 2 * blocks * lanes * taskRep
		lut += 500 * lanes // AXI datapath
	}
	return lut, ff, dsp, bram
}

// seqLat is the summed latency of an operation mix executed as a chain.
func seqLat(o cir.OpCount) float64 {
	l := defaultLat
	return float64(o.IntAdd*l.IntAdd + o.IntMul*l.IntMul + o.IntDiv*l.IntDiv +
		o.FpAdd*l.FpAdd + o.FpMul*l.FpMul + o.FpDiv*l.FpDiv +
		o.Transc*l.Transc + o.Select*l.Select + o.Loads*l.Load + o.Stores*l.Store)
}

// depth estimates the scheduled depth of a body given average ILP.
func depth(o cir.OpCount) float64 {
	return math.Max(3, seqLat(o)/ilpWidth)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
