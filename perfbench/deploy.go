package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"s2fa/internal/absint"
	"s2fa/internal/b2c"
	"s2fa/internal/blaze"
	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
	"s2fa/internal/core"
	"s2fa/internal/dse"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
	"s2fa/internal/merlin"
	"s2fa/internal/space"
	"s2fa/internal/spark"
)

// kernelDeploy is the Fig. 1 service path under two clients: every
// request is a new kdslgen kernel (all eight families, plus a small
// share of purity negatives) taken through core.Framework BuildFromSource
// → Deploy → one seeded 256-task Blaze map/reduce batch.
type kernelDeploy struct {
	seed int64
	ts   *traceStats
	// simMin sums S2FA DSE minutes over the first round, in request order.
	simMin  float64
	simRuns int
}

const (
	deployRoundSize = 16
	deployTasks     = 256
	deployClients   = 2
	// negativeOdds: about one request in this many is a purity negative.
	negativeOdds = 32
)

func (w *kernelDeploy) clients() int    { return deployClients }
func (w *kernelDeploy) heapRounds() int { return 16 }
func (w *kernelDeploy) tailQ() float64  { return 0.95 }

// deployReq is one request's inputs and outputs.
type deployReq struct {
	k        *kdslgen.Kernel // reference semantics
	negative bool
	raw      [][]kdslgen.FieldVal
	tasks    []jvmsim.Val

	build *core.Build
	out   []jvmsim.Val // map results, or the single reduced value
	stats blaze.Stats
	// traced-only replay inputs
	visits *visitRecorder
	fw     *core.Framework
}

type deployRound struct {
	w    *kernelDeploy
	r    int
	base int
	tr   *tracer
	reqs []*deployReq
}

// deployKernels returns round r's kernels: sixteen generated kernels
// (two of each family) from a round-derived seed, with a purity
// negative substituted where the seeded draw says so.
func deployKernels(seed int64, r int) ([]*kdslgen.Kernel, []bool) {
	rs := mix(seed, int64(r))
	ks := kdslgen.Generate(rs, deployRoundSize)
	neg := make([]bool, len(ks))
	rng := rand.New(rand.NewSource(rs))
	for i := range ks {
		if rng.Intn(negativeOdds) != 0 {
			continue
		}
		for _, n := range kdslgen.GenerateNegatives(mix(rs, int64(i)), 11) {
			if n.Stage == kdslgen.RejectPurity {
				ks[i], neg[i] = n.Kernel, true
				break
			}
		}
	}
	return ks, neg
}

// taskVal packs a generated task into the jvmsim input shape, copying
// arrays so the reference evaluator and the system never share them.
func taskVal(task []kdslgen.FieldVal) jvmsim.Val {
	fs := make([]jvmsim.Val, len(task))
	for i, f := range task {
		if f.IsArr {
			fs[i] = jvmsim.Array(append([]cir.Value(nil), f.Arr...))
		} else {
			fs[i] = jvmsim.Scalar(f.S)
		}
	}
	if len(fs) == 1 {
		return fs[0]
	}
	return jvmsim.Tuple(fs...)
}

func (w *kernelDeploy) newRound(r, base int, tr *tracer) (round, error) {
	ks, neg := deployKernels(w.seed, r)
	d := &deployRound{w: w, r: r, base: base, tr: tr}
	for i, k := range ks {
		rng := rand.New(rand.NewSource(mix(w.seed, int64(r), int64(i))))
		q := &deployReq{k: k, negative: neg[i]}
		for t := 0; t < deployTasks; t++ {
			raw := k.NewTask(rng)
			q.raw = append(q.raw, raw)
			q.tasks = append(q.tasks, taskVal(raw))
		}
		d.reqs = append(d.reqs, q)
	}
	return d, nil
}

func (d *deployRound) size() int { return len(d.reqs) }

func (d *deployRound) framework() *core.Framework {
	fw := core.New()
	fw.Seed = d.w.seed
	fw.Tasks = deployTasks
	return fw
}

func (d *deployRound) serve(_, j int) error {
	q := d.reqs[j]
	fw := d.framework()
	if d.tr != nil {
		return d.serveTraced(fw, q, d.base+j)
	}
	b, err := fw.BuildFromSource(q.k.Source)
	if err != nil {
		return err
	}
	q.build = b
	mgr := blaze.NewManager(fw.Device)
	if err := fw.Deploy(b, mgr); err != nil {
		return err
	}
	return q.offload(mgr, b.Class)
}

// offload runs the request's batch through Blaze.
func (q *deployReq) offload(mgr *blaze.Manager, cls *bytecode.Class) error {
	rdd := blaze.Wrap(spark.Parallelize(spark.NewContext(), q.tasks, 4), mgr)
	var err error
	if cls.Reduce != nil {
		var v jvmsim.Val
		v, q.stats, err = rdd.ReduceAcc(jvmsim.New(cls))
		q.out = []jvmsim.Val{v}
	} else {
		q.out, q.stats, err = rdd.MapAcc(jvmsim.New(cls))
	}
	return err
}

// serveTraced performs core.Framework's Compile, BuildFromClass and
// Deploy steps through each layer's public entry point, in core's order,
// with a span around each.
func (d *deployRound) serveTraced(fw *core.Framework, q *deployReq, req int) error {
	tr := d.tr
	root := tr.begin("request", -1, req)
	defer tr.end(root)
	id := tr.begin("kdsl.compile", root, req)
	cls, err := kdsl.CompileSource(q.k.Source)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("bytecode.verify", root, req)
	err = bytecode.VerifyClass(cls)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("absint.analyze", root, req)
	facts, err := absint.AnalyzeClass(cls)
	tr.end(id)
	if err != nil {
		facts = nil // as b2c.Compile: analysis failure only drops precision
	}
	id = tr.begin("b2c.compile", root, req)
	k, err := b2c.CompileVerified(cls, facts, nil)
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("space.identify", root, req)
	sp := space.Identify(k)
	tr.end(id)
	cfg := dse.S2FAConfig(fw.Seed)
	cfg.Device = fw.Device
	rec := newVisitRecorder(tr, req)
	var out *dse.Outcome
	rec.run(root, func() {
		out = dse.Run(k, sp, rec.wrap(dse.NewTracedEvaluator(k, sp, fw.Device, int64(fw.Tasks), fw.HLS, nil)), cfg)
	})
	q.visits = rec
	if !out.Best.Feasible {
		return fmt.Errorf("core: DSE found no feasible design for %s", k.Name)
	}
	rep, ok := dse.Report(out.Best)
	if !ok {
		return fmt.Errorf("best result carries no HLS report")
	}
	id = tr.begin("merlin.annotate", root, req)
	ann, err := merlin.Annotate(k, sp.Directives(out.Best.Point))
	tr.end(id)
	if err != nil {
		return err
	}
	b := &core.Build{Class: cls, Kernel: k, Space: sp, Outcome: out, Best: rep, BestKernel: ann,
		Accelerator: &blaze.Accelerator{ID: cls.ID, Layout: blaze.Layout{Class: cls, Kernel: ann}, Design: rep.Design(k.Name)}}
	q.build, q.fw = b, fw
	mgr := blaze.NewManager(fw.Device)
	id = tr.begin("core.deploy", root, req)
	err = fw.Deploy(b, mgr)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("blaze.offload", root, req)
	err = q.offload(mgr, cls)
	tr.end(id)
	return err
}

func (d *deployRound) finish() error { return nil }

func (d *deployRound) check(served []error) ([]error, []uint64) {
	bad := make([]error, len(d.reqs))
	hashes := make([]uint64, len(d.reqs))
	for j, q := range d.reqs {
		if served[j] != nil || q.build == nil {
			bad[j] = fmt.Errorf("no result")
			continue
		}
		f := newFP()
		f.str(cir.Print(q.build.BestKernel))
		f.outcome(q.build.Outcome)
		f.i64(int64(len(q.out)))
		for _, v := range q.out {
			f.val(v)
		}
		f.str(q.stats.Fallback)
		hashes[j] = f.sum()
		bad[j] = q.verify()
		if d.r == 0 && d.tr == nil {
			d.w.simMin += q.build.Outcome.TotalMinutes
			d.w.simRuns++
		}
	}
	if d.tr != nil && d.w.ts != nil {
		d.w.ts.deployReplay(d)
	}
	return bad, hashes
}

// verify checks the batch against the kdslgen reference semantics, bit
// for bit. A pure kernel must offload; a purity negative must fall back
// to the JVM with an "impure" reason and still compute the reference
// answer.
func (q *deployReq) verify() error {
	if q.negative {
		if q.stats.UsedFPGA || !strings.Contains(q.stats.Fallback, "impure") {
			return fmt.Errorf("purity negative %s: offloaded=%v fallback=%q", q.k.Name, q.stats.UsedFPGA, q.stats.Fallback)
		}
	} else if !q.stats.UsedFPGA {
		return fmt.Errorf("%s fell back to the JVM: %s", q.k.Name, q.stats.Fallback)
	}
	refs := make([]kdslgen.FieldVal, len(q.raw))
	for i, raw := range q.raw {
		v, err := q.k.Eval(raw)
		if err != nil {
			return fmt.Errorf("%s: reference task %d: %w", q.k.Name, i, err)
		}
		refs[i] = v
	}
	if q.k.HasReduce() {
		acc := refs[0]
		for _, v := range refs[1:] {
			var err error
			if acc, err = q.k.EvalReduce(acc, v); err != nil {
				return fmt.Errorf("%s: reference reduce: %w", q.k.Name, err)
			}
		}
		if len(q.out) != 1 || !sameField(acc, q.out[0]) {
			return fmt.Errorf("%s: reduced result differs from the reference", q.k.Name)
		}
		return nil
	}
	if len(q.out) != len(refs) {
		return fmt.Errorf("%s: %d results for %d tasks", q.k.Name, len(q.out), len(refs))
	}
	for i := range refs {
		if !sameField(refs[i], q.out[i]) {
			return fmt.Errorf("%s: task %d: got %v, reference %v", q.k.Name, i, q.out[i], refs[i])
		}
	}
	return nil
}

// replayOffload times the offload's steps through the layout's public
// functions on the same batch: serialization, cir execution of the
// chosen design, and deserialization.
func replayOffload(agg layerAgg, q *deployReq) error {
	layout := q.build.Accelerator.Layout
	n := len(q.tasks)
	t := time.Now()
	bufs, err := layout.Serialize(q.tasks)
	if err != nil {
		return err
	}
	for name, out := range layout.AllocOutputs(n) {
		bufs[name] = out
	}
	agg.add("blaze.serialize", time.Since(t), 1)
	ev := cir.NewEvaluator(layout.Kernel)
	ev.MaxSteps = 2_000_000_000
	t = time.Now()
	err = ev.Execute(n, bufs)
	agg.add("blaze.exec", time.Since(t), 1)
	if err != nil {
		return err
	}
	t = time.Now()
	if q.build.Class.Reduce != nil {
		_, err = layout.DeserializeReduced(bufs)
	} else {
		_, err = layout.Deserialize(bufs, n)
	}
	agg.add("blaze.deserialize", time.Since(t), 1)
	return err
}
