package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"s2fa/internal/absint"
	"s2fa/internal/b2c"
	"s2fa/internal/bytecode"
	"s2fa/internal/ccache"
	"s2fa/internal/cir"
	"s2fa/internal/compile"
	"s2fa/internal/core"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
	"s2fa/internal/lint"
)

// compileChurn is the edit/CI recompile loop: two clients send
// core.Framework.Compile requests through one shared compile cache.
// About two requests in three repeat an earlier kernel, skewed towards
// the oldest (hot) ones; a few are parse/check negatives. A round is one
// pass over the seeded list with a fresh cache, so every round sees the
// same mix of hits and misses.
type compileChurn struct {
	seed int64
	ts   *traceStats
	list []churnReq
	refs []churnRef
	// fws are the clients' frameworks; each keeps its own scratch
	// buffers across rounds and gets the round's shared cache.
	fws [churnClients]*core.Framework
}

const (
	churnClients = 2
	// churnPass is the number of requests in one pass.
	churnPass = 3072
	// Shares of the request stream: negatives, then first-time kernels;
	// the rest repeat an earlier kernel.
	churnNegShare = 0.02
	churnNewShare = 0.33
)

// churnReq is one request of the pass: a kernel (index into refs) and
// whether this is the kernel's first appearance in the list.
type churnReq struct {
	ref   int
	first bool
}

// churnRef is the expected outcome of compiling one source, computed
// without the cache: the rendered kernel's fingerprint, or, for a
// negative, the stage its tag names and the error the frontend gives.
type churnRef struct {
	src   string
	neg   bool
	stage kdslgen.Reject
	print uint64
	err   string
}

func newCompileChurn(seed int64) (*compileChurn, error) {
	w := &compileChurn{seed: seed}
	rng := rand.New(rand.NewSource(mix(seed, 1)))
	var negs []*kdslgen.Negative
	for _, n := range kdslgen.GenerateNegatives(mix(seed, 2), 33) {
		if n.Stage == kdslgen.RejectParse || n.Stage == kdslgen.RejectCheck {
			negs = append(negs, n)
		}
	}
	// Decide the stream's shape first, then generate exactly the kernels
	// it introduces.
	type slot struct{ kind, i int } // kind 0 new, 1 repeat, 2 negative
	var slots []slot
	nNew, nNeg := 0, 0
	for len(slots) < churnPass {
		u := rng.Float64()
		switch {
		case u < churnNegShare:
			slots = append(slots, slot{2, nNeg % len(negs)})
			nNeg++
		case nNew == 0 || u < churnNegShare+churnNewShare:
			slots = append(slots, slot{0, nNew})
			nNew++
		default:
			v := rng.Float64()
			slots = append(slots, slot{1, int(float64(nNew) * v * v)})
		}
	}
	for _, k := range kdslgen.Generate(mix(seed, 3), nNew) {
		ref, err := compileRef(k.Source)
		if err != nil {
			return nil, fmt.Errorf("reference compile of %s: %w", k.Name, err)
		}
		w.refs = append(w.refs, ref)
	}
	negBase := len(w.refs)
	for _, n := range negs {
		w.refs = append(w.refs, negRef(n))
	}
	for _, s := range slots {
		switch s.kind {
		case 0:
			w.list = append(w.list, churnReq{ref: s.i, first: true})
		case 1:
			w.list = append(w.list, churnReq{ref: s.i})
		default:
			w.list = append(w.list, churnReq{ref: negBase + s.i})
		}
	}
	for c := range w.fws {
		w.fws[c] = &core.Framework{Scratch: compile.NewScratch()}
	}
	return w, nil
}

// compileRef compiles src the uncached way and fingerprints the kernel.
func compileRef(src string) (churnRef, error) {
	cls, err := kdsl.CompileSource(src)
	if err != nil {
		return churnRef{}, err
	}
	k, err := b2c.Compile(cls)
	if err != nil {
		return churnRef{}, err
	}
	return churnRef{src: src, print: printHash(k)}, nil
}

// negRef records where the frontend rejects a negative: parse errors
// come from kdsl.Parse, check errors from the checker once it parses.
func negRef(n *kdslgen.Negative) churnRef {
	ref := churnRef{src: n.Source, neg: true, stage: n.Stage}
	if _, err := kdsl.Parse(n.Source); err != nil {
		ref.stage, ref.err = kdslgen.RejectParse, err.Error()
		if n.Stage != kdslgen.RejectParse {
			ref.err = "" // rejected earlier than tagged: no expected error
		}
		return ref
	}
	if _, err := kdsl.CompileSource(n.Source); err != nil && n.Stage == kdslgen.RejectCheck {
		ref.err = err.Error()
	}
	return ref
}

func printHash(k *cir.Kernel) uint64 {
	f := newFP()
	f.str(cir.Print(k))
	return f.sum()
}

func (w *compileChurn) clients() int    { return churnClients }
func (w *compileChurn) heapRounds() int { return 32 }
func (w *compileChurn) tailQ() float64  { return 0.95 }

type churnRound struct {
	w     *compileChurn
	base  int
	tr    *tracer
	cache *ccache.Cache
	out   []*cir.Kernel
	errs  []error
}

func (w *compileChurn) newRound(_, base int, tr *tracer) (round, error) {
	c := ccache.New()
	for _, fw := range w.fws {
		fw.Cache = c
	}
	return &churnRound{w: w, base: base, tr: tr, cache: c,
		out: make([]*cir.Kernel, len(w.list)), errs: make([]error, len(w.list))}, nil
}

func (c *churnRound) size() int { return len(c.w.list) }

// serve compiles one source. A rejected negative is the expected
// answer, not a failed request, so the error is kept for the check.
func (c *churnRound) serve(client, j int) error {
	q := c.w.list[j]
	src := c.w.refs[q.ref].src
	fw := c.w.fws[client]
	if c.tr == nil {
		_, c.out[j], c.errs[j] = fw.Compile(src)
		return nil
	}
	req := c.base + j
	root := c.tr.begin("request", -1, req)
	name := "ccache.hit"
	if q.first || c.w.refs[q.ref].neg {
		name = "ccache.miss"
	}
	id := c.tr.begin(name, root, req)
	_, c.out[j], c.errs[j] = fw.Compile(src)
	c.tr.end(id)
	c.tr.end(root)
	return nil
}

func (c *churnRound) finish() error { return nil }

func (c *churnRound) check(_ []error) ([]error, []uint64) {
	n := len(c.w.list)
	bad := make([]error, n)
	hashes := make([]uint64, n)
	printed := map[*cir.Kernel]uint64{}
	for j, q := range c.w.list {
		ref := c.w.refs[q.ref]
		k, err := c.out[j], c.errs[j]
		if ref.neg {
			var kerr *kdsl.Error
			switch {
			case err == nil:
				bad[j] = fmt.Errorf("%s negative compiled", ref.stage)
			case !errors.As(err, &kerr):
				bad[j] = fmt.Errorf("%s negative: untyped error %v", ref.stage, err)
			case ref.err == "" || err.Error() != ref.err:
				bad[j] = fmt.Errorf("%s negative rejected at the wrong stage: %v", ref.stage, err)
			}
			f := newFP()
			if err != nil {
				f.str(err.Error())
			}
			hashes[j] = f.sum()
			continue
		}
		if err != nil {
			bad[j] = err
			continue
		}
		h, ok := printed[k]
		if !ok {
			h = printHash(k)
			printed[k] = h
		}
		if h != ref.print {
			bad[j] = fmt.Errorf("compiled kernel differs from the uncached compile")
		}
		hashes[j] = h
	}
	st := c.cache.Stats()
	if st.Poisoned != 0 {
		bad[n-1] = fmt.Errorf("compile cache reports %d poisoned entries", st.Poisoned)
	}
	if c.tr != nil && c.w.ts != nil {
		c.w.ts.churnStats(c, st)
	}
	return bad, hashes
}

// replayCompile times the compile pipeline of one source layer by
// layer through the layers' public entry points (the order b2c.Compile
// and the cache's miss path use).
func replayCompile(agg layerAgg, src string) error {
	t := time.Now()
	cls, err := kdsl.CompileSource(src)
	agg.add("kdsl.compile", time.Since(t), 1)
	if err != nil {
		return err
	}
	t = time.Now()
	err = bytecode.VerifyClass(cls)
	agg.add("bytecode.verify", time.Since(t), 1)
	if err != nil {
		return err
	}
	t = time.Now()
	facts, err := absint.AnalyzeClass(cls)
	agg.add("absint.analyze", time.Since(t), 1)
	if err != nil {
		facts = nil
	}
	t = time.Now()
	k, err := b2c.CompileVerified(cls, facts, nil)
	agg.add("b2c.compile", time.Since(t), 1)
	if err != nil {
		return err
	}
	replayLint(agg, k)
	return nil
}

// replayLint times the lint pass b2c.CompileVerified runs as its gate,
// so b2c's own time can be told apart from it.
func replayLint(agg layerAgg, k *cir.Kernel) {
	t := time.Now()
	lint.Lint(k)
	agg.add("lint.lint", time.Since(t), 1)
}
