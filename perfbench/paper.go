package main

import (
	"fmt"
	"math/rand"

	"s2fa/internal/apps"
	"s2fa/internal/blaze"
	"s2fa/internal/dse"
	"s2fa/internal/exp"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/jvmsim"
	"s2fa/internal/merlin"
	"s2fa/internal/space"
	"s2fa/internal/spark"
)

// paperEval is the paper's own evaluation as a closed loop with one
// client. A request computes one registered app's artifacts in a fresh
// exp.Suite (S2FA DSE, vanilla DSE, JVM baseline, manual design); a
// round is all apps in a seeded order and ends with the Fig. 3 + Fig. 4
// assembly. Each pair of rounds shares a suite seed: a run averages over
// several DSE seeds, and the second round of a pair must render the
// same figures as the first.
type paperEval struct {
	seed int64
	ts   *traceStats

	// renders holds the Fig. 3 + Fig. 4 text of each suite seed's first
	// round. With keep set (a traced run follows), untraced keeps every
	// untraced round for the traced rounds to compare against.
	renders  map[int64]string
	keep     bool
	untraced []*paperRound
	// simMin and speedup are the first round's mean S2FA DSE minutes
	// (apps in registry order) and Fig. 4 geomean speedup.
	simMin, speedup float64
	// verdicts memoizes the design oracle by app and chosen design point,
	// so each distinct design is deployed once.
	verdicts map[string]error
}

// designBatch is the size of the seeded batch each chosen design runs
// through Blaze for the output oracle.
const designBatch = 16

func (w *paperEval) clients() int    { return 1 }
func (w *paperEval) heapRounds() int { return 8 }
func (w *paperEval) tailQ() float64  { return 0.90 }

type paperRound struct {
	w     *paperEval
	r     int
	seed  int64 // the suite seed
	base  int
	tr    *tracer
	order []string
	suite *exp.Suite
	res   []*exp.AppResult
	fig3  *exp.Fig3Result
	fig4  *exp.Fig4Result
	// visits holds each traced request's DSE recorders for the replay.
	visits [][]*visitRecorder
}

func (w *paperEval) newRound(r, base int, tr *tracer) (round, error) {
	names := exp.AppNames()
	rng := rand.New(rand.NewSource(mix(w.seed, int64(r))))
	order := make([]string, len(names))
	for i, j := range rng.Perm(len(names)) {
		order[i] = names[j]
	}
	seed := mix(w.seed, int64(r/2), 1)
	return &paperRound{w: w, r: r, seed: seed, base: base, tr: tr, order: order, suite: exp.NewSuite(seed),
		res: make([]*exp.AppResult, len(order)), visits: make([][]*visitRecorder, len(order))}, nil
}

func (p *paperRound) size() int { return len(p.order) }

func (p *paperRound) serve(_, j int) error {
	if p.tr != nil {
		return p.serveTraced(j)
	}
	r, err := p.suite.Result(p.order[j], exp.Modes{Vanilla: true})
	p.res[j] = r
	return err
}

// serveTraced performs exp.Suite.Result's steps through each layer's
// public entry point, in the suite's order, with a span around each.
func (p *paperRound) serveTraced(j int) error {
	req := p.base + j
	root := p.tr.begin("request", -1, req)
	defer p.tr.end(root)
	a := apps.Get(p.order[j])
	if a == nil {
		return fmt.Errorf("unknown app %q", p.order[j])
	}
	k, err := a.Kernel()
	if err != nil {
		return err
	}
	dev := p.suite.Device
	id := p.tr.begin("jvmsim.baseline", root, req)
	jvm, err := exp.JVMSecondsForEngine(a, a.Tasks, p.suite.JIT, nil)
	p.tr.end(id)
	if err != nil {
		return err
	}
	id = p.tr.begin("space.identify", root, req)
	sp := space.Identify(k)
	p.tr.end(id)
	r := &exp.AppResult{App: a, Kernel: k, Space: sp, JVMSeconds: jvm}

	s2fa := newVisitRecorder(p.tr, req)
	cfg := dse.S2FAConfig(p.seed)
	cfg.Device = dev
	s2fa.run(root, func() {
		r.S2FA = dse.Run(k, sp, s2fa.wrap(dse.NewEvaluator(k, sp, dev, int64(a.Tasks), hls.Options{})), cfg)
	})
	if rep, ok := dse.Report(r.S2FA.Best); ok {
		r.BestReport = rep
	}
	loops, bw := a.Manual.Directives(k)
	id = p.tr.begin("merlin.annotate", root, req)
	ann, err := merlin.Annotate(k, merlin.Directives{Loops: loops, BitWidths: bw})
	p.tr.end(id)
	if err != nil {
		return fmt.Errorf("manual design for %s: %w", a.Name, err)
	}
	id = p.tr.begin("hls.estimate", root, req)
	r.ManualReport = hls.Estimate(ann, dev, int64(a.Tasks), hls.Options{StageSplit: a.Manual.StageSplit})
	p.tr.end(id)

	van := newVisitRecorder(p.tr, req)
	van.run(root, func() {
		eval := dse.FlatInfeasible(van.wrap(dse.NewEvaluator(k, sp, dev, int64(a.Tasks), hls.Options{})))
		r.Vanilla = dse.Run(k, sp, eval, dse.VanillaConfig(p.seed))
	})
	p.res[j] = r
	p.visits[j] = []*visitRecorder{s2fa, van}
	return nil
}

func (p *paperRound) finish() error {
	if p.tr != nil {
		return p.finishTraced()
	}
	f3, err := exp.Fig3(p.suite, nil)
	if err != nil {
		return err
	}
	f4, err := exp.Fig4(p.suite)
	if err != nil {
		return err
	}
	p.fig3, p.fig4 = f3, f4
	return nil
}

// finishTraced times the assembly over the same untraced round's warm
// suite, then renders that round's figures with this round's traced
// results in place of the suite's, which must reproduce the untraced
// render.
func (p *paperRound) finishTraced() error {
	if p.r >= len(p.w.untraced) {
		return fmt.Errorf("traced round %d has no untraced round to compare against", p.r)
	}
	first := p.w.untraced[p.r]
	id := p.tr.begin("exp.assemble", -1, p.base+len(p.order))
	_, err3 := exp.Fig3(first.suite, nil)
	_, err4 := exp.Fig4(first.suite)
	p.tr.end(id)
	if err3 != nil || err4 != nil {
		return fmt.Errorf("assembly: %v %v", err3, err4)
	}
	byName := map[string]*exp.AppResult{}
	for _, r := range p.res {
		if r != nil {
			byName[r.App.Name] = r
		}
	}
	f3 := *first.fig3
	f3.Series = append([]exp.Fig3Series(nil), f3.Series...)
	for i, s := range f3.Series {
		r := byName[s.App]
		if r == nil {
			return fmt.Errorf("no traced result for %s", s.App)
		}
		f3.Series[i].S2FA, f3.Series[i].Vanilla = r.S2FA, r.Vanilla
	}
	f4 := *first.fig4
	f4.Rows = append([]exp.Fig4Row(nil), f4.Rows...)
	for i, row := range f4.Rows {
		r := byName[row.App]
		if r == nil {
			return fmt.Errorf("no traced result for %s", row.App)
		}
		f4.Rows[i].JVMSeconds = r.JVMSeconds
		f4.Rows[i].S2FASpeedup = r.S2FASpeedup()
		f4.Rows[i].ManualSpeedup = r.ManualSpeedup()
	}
	p.fig3, p.fig4 = &f3, &f4
	return nil
}

func (p *paperRound) check(served []error) ([]error, []uint64) {
	bad := make([]error, len(p.order))
	hashes := make([]uint64, len(p.order))
	for j, r := range p.res {
		if served[j] != nil || r == nil {
			bad[j] = fmt.Errorf("no result")
			continue
		}
		f := newFP()
		f.str(r.App.Name)
		f.f64(r.JVMSeconds)
		f.outcome(r.S2FA)
		f.outcome(r.Vanilla)
		f.f64(r.BestReport.Seconds())
		f.f64(r.ManualReport.Seconds())
		hashes[j] = f.sum()
		design := r.App.Name + " " + r.S2FA.Best.Point.Key()
		err, ok := p.w.verdicts[design]
		if !ok {
			err = checkDesign(r, nameSeed(p.w.seed, r.App.Name))
			if p.w.verdicts == nil {
				p.w.verdicts = map[string]error{}
			}
			p.w.verdicts[design] = err
		}
		bad[j] = err
	}
	if p.fig3 != nil && p.fig4 != nil {
		render := p.fig3.Render() + p.fig4.Render()
		if p.w.renders == nil {
			p.w.renders = map[int64]string{}
		}
		want, ok := p.w.renders[p.seed]
		switch {
		case !ok:
			p.w.renders[p.seed] = render
		case render != want:
			bad[len(bad)-1] = fmt.Errorf("Fig. 3/4 render differs from the earlier round with the same suite seed")
		}
		if p.tr == nil {
			if p.r == 0 {
				p.w.simMin, p.w.speedup = quality(p)
			}
			if p.w.keep {
				p.w.untraced = append(p.w.untraced, p)
			}
		}
	}
	if p.tr != nil && p.w.ts != nil {
		p.w.ts.paperReplay(p)
	}
	return bad, hashes
}

// quality returns the round's mean S2FA DSE minutes, summed in registry
// order, and the Fig. 4 geomean speedup.
func quality(p *paperRound) (simMin, speedup float64) {
	byName := map[string]*exp.AppResult{}
	for _, r := range p.res {
		byName[r.App.Name] = r
	}
	names := exp.AppNames()
	for _, n := range names {
		simMin += byName[n].S2FA.TotalMinutes
	}
	return simMin / float64(len(names)), p.fig4.MeanSpeedup
}

// checkDesign deploys the chosen S2FA design through Blaze and runs a
// seeded batch on it; the results must equal the jvmsim interpreter's,
// bit for bit, and the batch must actually offload.
func checkDesign(r *exp.AppResult, seed int64) error {
	if !r.S2FA.Best.Feasible {
		return fmt.Errorf("%s: S2FA found no feasible design", r.App.Name)
	}
	cls, err := r.App.Class()
	if err != nil {
		return err
	}
	ann, err := merlin.Annotate(r.Kernel, r.Space.Directives(r.S2FA.Best.Point))
	if err != nil {
		return fmt.Errorf("%s: annotating the chosen design: %w", r.App.Name, err)
	}
	mgr := blaze.NewManager(fpga.VU9P())
	acc := &blaze.Accelerator{ID: cls.ID, Layout: blaze.Layout{Class: cls, Kernel: ann}, Design: r.BestReport.Design(r.App.Name)}
	if err := mgr.Register(acc); err != nil {
		return err
	}
	tasks := r.App.Gen(rand.New(rand.NewSource(seed)), designBatch)
	ref := r.App.Gen(rand.New(rand.NewSource(seed)), designBatch)
	want, err := jvmsim.New(cls).CallBatch(ref)
	if err != nil {
		return fmt.Errorf("%s: jvmsim: %w", r.App.Name, err)
	}
	rdd := blaze.Wrap(spark.Parallelize(spark.NewContext(), tasks, 2), mgr)
	if cls.Reduce != nil {
		vm := jvmsim.New(cls)
		acc := copyVal(want[0])
		for _, v := range want[1:] {
			if acc, err = vm.Reduce(acc, v); err != nil {
				return fmt.Errorf("%s: jvmsim reduce: %w", r.App.Name, err)
			}
		}
		got, st, err := rdd.ReduceAcc(jvmsim.New(cls))
		if err != nil {
			return err
		}
		if !st.UsedFPGA {
			return fmt.Errorf("%s: design fell back to the JVM: %s", r.App.Name, st.Fallback)
		}
		if !sameVal(acc, got) {
			return fmt.Errorf("%s: reduced result %v, jvmsim %v", r.App.Name, got, acc)
		}
		return nil
	}
	got, st, err := rdd.MapAcc(jvmsim.New(cls))
	if err != nil {
		return err
	}
	if !st.UsedFPGA {
		return fmt.Errorf("%s: design fell back to the JVM: %s", r.App.Name, st.Fallback)
	}
	for i := range want {
		if !sameVal(want[i], got[i]) {
			return fmt.Errorf("%s: task %d: blaze %v, jvmsim %v", r.App.Name, i, got[i], want[i])
		}
	}
	return nil
}
