package apps

// The full-pipeline soak: every kernel kdslgen emits is pushed through
// the complete toolchain — parse/compile, bytecode verification,
// abstract interpretation, b2c lowering, lint, JVM interpretation and
// JIT, the cir evaluator behind the blaze layout, merlin
// materialization, the lint/DSE legality shadow, a short traced-vs-
// untraced DSE run, and the blaze runtime — with cross-layer invariants checked
// at every seam. The generator promises validity by construction, so
// any rejection or differential mismatch is a toolchain bug, and the
// failing kernel is automatically shrunk to a minimal reproducer
// written under testdata/soak_failures/.
//
// Knobs (standard go test flags):
//
//	-soak.n     number of generated kernels (default 16; CI runs 200)
//	-soak.seed  generator seed (default 42)
//
// Same seed, same n ⇒ byte-identical kernel set and verdicts.

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"s2fa/internal/absint"
	"s2fa/internal/access"
	"s2fa/internal/b2c"
	"s2fa/internal/blaze"
	"s2fa/internal/bytecode"
	"s2fa/internal/ccache"
	"s2fa/internal/cir"
	"s2fa/internal/depend"
	"s2fa/internal/dse"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
	"s2fa/internal/lint"
	"s2fa/internal/merlin"
	"s2fa/internal/obs"
	"s2fa/internal/space"
	"s2fa/internal/spark"
)

var (
	soakN    = flag.Int("soak.n", 16, "generated kernels per soak run")
	soakSeed = flag.Int64("soak.seed", 42, "kdslgen seed for the soak run")
)

const soakTasks = 3

// soakCache is shared across the whole soak population: the cache is
// content-addressed, so distinct generated kernels coexist and shrinker
// re-runs of the same kernel become hits.
var soakCache = ccache.New()

// soakTaskSeed derives the per-kernel input seed from the run seed and
// the kernel identity (FNV-1a over the accelerator id), so task batches
// are deterministic per kernel and independent of iteration order.
func soakTaskSeed(seed int64, id string) int64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return seed*9_000_011 + int64(h&0x7fffffffffff)
}

// soakVal packs a generated task into the jvmsim input shape (one field
// bare, several as a tuple), copying arrays so the reference evaluator
// and the VM never share backing stores.
func soakVal(task []kdslgen.FieldVal) jvmsim.Val {
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

// soakSameScalar is bit-exact equality: generated kernels mirror JVM
// arithmetic operation for operation, so even float results may not
// drift by one ulp (NaNs of equal payload compare equal).
func soakSameScalar(a, b cir.Value) bool {
	if a.K != b.K {
		return false
	}
	if a.K.IsFloat() {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a.I == b.I
}

func soakSameVal(a, b jvmsim.Val) bool {
	switch {
	case a.IsTup:
		if !b.IsTup || len(a.Tup) != len(b.Tup) {
			return false
		}
		for i := range a.Tup {
			if !soakSameVal(a.Tup[i], b.Tup[i]) {
				return false
			}
		}
		return true
	case a.IsArr:
		if !b.IsArr || len(a.Arr) != len(b.Arr) {
			return false
		}
		for i := range a.Arr {
			if !soakSameScalar(a.Arr[i], b.Arr[i]) {
				return false
			}
		}
		return true
	default:
		return !b.IsArr && !b.IsTup && soakSameScalar(a.S, b.S)
	}
}

// soakCopyVal deep-copies a value: the reduce combiner accumulates into
// its first argument's array in place, so folds must run on copies to
// keep the per-task outputs intact for later comparisons.
func soakCopyVal(v jvmsim.Val) jvmsim.Val {
	switch {
	case v.IsTup:
		fs := make([]jvmsim.Val, len(v.Tup))
		for i := range v.Tup {
			fs[i] = soakCopyVal(v.Tup[i])
		}
		return jvmsim.Tuple(fs...)
	case v.IsArr:
		return jvmsim.Array(append([]cir.Value(nil), v.Arr...))
	default:
		return v
	}
}

func soakSameField(ref kdslgen.FieldVal, got jvmsim.Val) bool {
	if got.IsTup || ref.IsArr != got.IsArr {
		return false
	}
	if !ref.IsArr {
		return soakSameScalar(ref.S, got.S)
	}
	if len(ref.Arr) != len(got.Arr) {
		return false
	}
	for i := range ref.Arr {
		if !soakSameScalar(ref.Arr[i], got.Arr[i]) {
			return false
		}
	}
	return true
}

// runSoakPipeline drives one kernel through the full toolchain and
// returns ("", "") on success or (stage, detail) naming the first
// broken invariant. It is deliberately free of *testing.T so the
// shrinker can re-run it as its failure predicate: a candidate kernel
// reproduces the failure iff it fails at the same stage.
func runSoakPipeline(k *kdslgen.Kernel, seed int64) (string, string) {
	cls, err := kdsl.CompileSource(k.Source)
	if err != nil {
		return "compile", err.Error()
	}
	if err := bytecode.VerifyClass(cls); err != nil {
		return "verify", err.Error()
	}
	facts, err := absint.AnalyzeClass(cls)
	if err != nil {
		return "absint", err.Error()
	}
	if vs := facts.Violations(); len(vs) != 0 {
		return "absint", fmt.Sprintf("generated kernel has structure violations: %v", vs)
	}
	if !facts.Pure() {
		return "absint", fmt.Sprintf("generated kernel reported impure: %v", facts.Impurities())
	}
	kern, err := b2c.Compile(cls)
	if err != nil {
		return "b2c", err.Error()
	}
	if fs := lint.Lint(kern); fs.HasErrors() {
		return "lint", fmt.Sprintf("%v", fs.Errors())
	}

	// Cache shadow: a deterministic coin per kernel routes roughly half
	// the soak population through the shared content-addressed compile
	// cache — twice, so both the miss and the hit path are exercised.
	// The served bytecode, rendered C, and lint verdicts must be
	// bit-identical to the fresh compile above; the rest of the pipeline
	// then runs on the cache-served kernel, so every downstream
	// differential (JVM, cir evaluator, merlin, DSE, blaze) also vouches
	// for the cached artifact.
	if soakTaskSeed(seed, k.ID)&1 == 0 {
		for pass := 0; pass < 2; pass++ {
			ccls, e, err := soakCache.CompileSource(k.Source, nil, nil)
			if err != nil {
				return "ccache", err.Error()
			}
			if !reflect.DeepEqual(ccls, cls) {
				return "ccache", fmt.Sprintf("pass %d: cached bytecode differs from fresh compile", pass)
			}
			if cir.Print(e.Kernel) != cir.Print(kern) {
				return "ccache", fmt.Sprintf("pass %d: cached kernel renders different C", pass)
			}
			if !reflect.DeepEqual(e.Lint, lint.Lint(kern)) {
				return "ccache", fmt.Sprintf("pass %d: cached lint verdicts differ from fresh", pass)
			}
			kern = e.Kernel
		}
	}

	// Reference semantics vs JVM interpreter, bit-exact per task.
	rng := rand.New(rand.NewSource(soakTaskSeed(seed, k.ID)))
	raw := make([][]kdslgen.FieldVal, soakTasks)
	tasks := make([]jvmsim.Val, soakTasks)
	for i := range raw {
		raw[i] = k.NewTask(rng)
		tasks[i] = soakVal(raw[i])
	}
	vm := jvmsim.New(cls)
	outs := make([]jvmsim.Val, soakTasks)
	refs := make([]kdslgen.FieldVal, soakTasks)
	for i := range tasks {
		got, err := vm.Call(tasks[i])
		if err != nil {
			return "jvm", fmt.Sprintf("task %d: %v", i, err)
		}
		want, err := k.Eval(raw[i])
		if err != nil {
			return "reference", fmt.Sprintf("task %d: %v", i, err)
		}
		if !soakSameField(want, got) {
			return "ref-vs-jvm", fmt.Sprintf("task %d: reference %v, jvm %v", i, want, got)
		}
		outs[i], refs[i] = got, want
	}
	redJVM := soakCopyVal(outs[0])
	if k.HasReduce() {
		refAcc := refs[0]
		for i := 1; i < soakTasks; i++ {
			if redJVM, err = vm.Reduce(redJVM, outs[i]); err != nil {
				return "jvm-reduce", err.Error()
			}
			if refAcc, err = k.EvalReduce(refAcc, refs[i]); err != nil {
				return "reference-reduce", err.Error()
			}
		}
		if !soakSameField(refAcc, redJVM) {
			return "ref-vs-jvm-reduce", fmt.Sprintf("reference %v, jvm %v", refAcc, redJVM)
		}
	}

	// JIT engine vs interpreter, bit-exact including the reduce fold.
	vmJ, err := jvmsim.NewJIT(cls)
	if err != nil {
		return "jit", err.Error()
	}
	outJ, err := vmJ.CallBatch(tasks)
	if err != nil {
		return "jit", err.Error()
	}
	for i := range outs {
		if !soakSameVal(outs[i], outJ[i]) {
			return "jit-vs-interp", fmt.Sprintf("task %d: interp %v, jit %v", i, outs[i], outJ[i])
		}
	}
	if k.HasReduce() {
		redJIT := soakCopyVal(outJ[0])
		for i := 1; i < soakTasks; i++ {
			if redJIT, err = vmJ.Reduce(redJIT, outJ[i]); err != nil {
				return "jit-reduce", err.Error()
			}
		}
		if !soakSameVal(redJVM, redJIT) {
			return "jit-vs-interp-reduce", fmt.Sprintf("interp %v, jit %v", redJVM, redJIT)
		}
	}

	// The cir evaluator behind the blaze layout: serialize, execute,
	// deserialize, compare against the JVM outputs (the map/reduce fold
	// orders agree, so results are bit-exact here too).
	layout := blaze.Layout{Class: cls, Kernel: kern}
	bufs, err := layout.Serialize(tasks)
	if err != nil {
		return "serialize", err.Error()
	}
	for name, out := range layout.AllocOutputs(soakTasks) {
		bufs[name] = out
	}
	ev := cir.NewEvaluator(kern)
	ev.MaxSteps = 2_000_000_000
	if err := ev.Execute(soakTasks, bufs); err != nil {
		return "cir-exec", err.Error()
	}
	if k.HasReduce() {
		got, err := layout.DeserializeReduced(bufs)
		if err != nil {
			return "deserialize", err.Error()
		}
		if !soakSameVal(redJVM, got) {
			return "cir-vs-jvm", fmt.Sprintf("reduced: jvm %v, kernel %v", redJVM, got)
		}
	} else {
		res, err := layout.Deserialize(bufs, soakTasks)
		if err != nil {
			return "deserialize", err.Error()
		}
		for i := range res {
			if !soakSameVal(outs[i], res[i]) {
				return "cir-vs-jvm", fmt.Sprintf("task %d: jvm %v, kernel %v", i, outs[i], res[i])
			}
		}
	}

	// Merlin materialization must preserve semantics for any directive
	// set it accepts (structural rejections are legitimate). Transforms
	// may reassociate float arithmetic, so this seam alone tolerates
	// relative error instead of demanding bit equality.
	mrng := rand.New(rand.NewSource(soakTaskSeed(seed, k.ID) + 1))
	for trial := 0; trial < 2; trial++ {
		d := merlin.Directives{Loops: map[string]cir.LoopOpt{}, BitWidths: map[string]int{}}
		for _, li := range kern.Loops() {
			var opt cir.LoopOpt
			if mrng.Intn(2) == 0 {
				opt.Parallel = 1 + mrng.Intn(3)
			}
			if mrng.Intn(3) == 0 && li.TripCount() > 3 {
				opt.Tile = 2 + mrng.Intn(3)
			}
			if mrng.Intn(3) == 0 {
				opt.Pipeline = cir.PipeOn
			}
			d.Loops[li.ID] = opt
		}
		xk, err := merlin.Materialize(kern, d)
		if err != nil {
			continue
		}
		xbufs, err := layout.Serialize(tasks)
		if err != nil {
			return "serialize", err.Error()
		}
		for name, out := range layout.AllocOutputs(soakTasks) {
			xbufs[name] = out
		}
		xev := cir.NewEvaluator(xk)
		xev.MaxSteps = 2_000_000_000
		if err := xev.Execute(soakTasks, xbufs); err != nil {
			return "materialize-exec", fmt.Sprintf("directives %v: %v", d.Loops, err)
		}
		for _, p := range kern.Params {
			if !p.IsOutput {
				continue
			}
			bb, xb := bufs[p.Name], xbufs[p.Name]
			for i := range bb {
				if p.Elem.IsFloat() {
					if math.Abs(bb[i].AsFloat()-xb[i].AsFloat()) > 1e-6*(1+math.Abs(bb[i].AsFloat())) {
						return "materialize", fmt.Sprintf("directives %v changed %s[%d]: %v -> %v",
							d.Loops, p.Name, i, bb[i], xb[i])
					}
				} else if bb[i].AsInt() != xb[i].AsInt() {
					return "materialize", fmt.Sprintf("directives %v changed %s[%d]: %v -> %v",
						d.Loops, p.Name, i, bb[i], xb[i])
				}
			}
		}
	}

	// Lint-shadow: every design point the verifier rejects with an error
	// must also be rejected dynamically (Annotate fails or HLS reports
	// infeasible) — the no-false-positive contract the DSE pruner rests
	// on, here enforced over generated structure instead of the
	// hand-written workloads.
	dev := fpga.VU9P()
	sp := space.Identify(kern)
	chk := lint.NewChecker(kern)
	lrng := rand.New(rand.NewSource(soakTaskSeed(seed, k.ID) + 2))
	var pts []space.Point
	for i := 0; i < 8; i++ {
		pts = append(pts, sp.RandomPoint(lrng))
	}
	for i := range sp.Params {
		p := &sp.Params[i]
		if p.Kind != space.FactorPipeline {
			continue
		}
		pt := sp.RandomPoint(lrng)
		pt.Set(i, space.PipeFlattenVal)
		pts = append(pts, pt)
	}
	for _, pt := range pts {
		d := sp.Directives(pt)
		fs := chk.Directives(d.Loops, d.BitWidths)
		if !fs.HasErrors() {
			continue
		}
		ann, err := merlin.Annotate(kern, d)
		if err != nil {
			continue // rejected at annotation: the shadow holds
		}
		if rep := hls.Estimate(ann, dev, 256, hls.Options{}); rep.Feasible {
			return "lint-shadow", fmt.Sprintf("point %v lint-rejected but Annotate and HLS accept it:\n%v", pt, fs.Errors())
		}
	}

	// Short traced DSE: tracing (spans, counters, metrics registry) is
	// read-only, so the traced outcome must be byte-identical to the
	// untraced one.
	cfg := dse.S2FAConfig(seed)
	cfg.Device = dev
	cfg.MaxEvaluations = 24
	spPlain := space.Identify(kern)
	plain := outcomeFingerprint(dse.Run(kern, spPlain,
		dse.NewEvaluator(kern, spPlain, dev, 256, hls.Options{}), cfg))
	tr := obs.New(obs.Discard(), obs.WithRegistry(obs.NewRegistry()))
	spTraced := space.Identify(kern)
	tcfg := cfg
	tcfg.Trace = tr
	traced := outcomeFingerprint(dse.Run(kern, spTraced,
		dse.NewTracedEvaluator(kern, spTraced, dev, 256, hls.Options{}, tr), tcfg))
	if plain != traced {
		return "dse-determinism", fmt.Sprintf("--- untraced\n%s--- traced\n%s", plain, traced)
	}

	// End to end through the blaze runtime: a pure generated kernel must
	// offload (no fallback) and return the JVM answer.
	rep := hls.Estimate(kern, dev, soakTasks, hls.Options{})
	mgr := blaze.NewManager(dev)
	acc := &blaze.Accelerator{ID: cls.ID, Layout: layout, Design: rep.Design(k.Name)}
	if err := mgr.Register(acc); err != nil {
		return "blaze", err.Error()
	}
	rdd := spark.Parallelize(spark.NewContext(), tasks, 2)
	if k.HasReduce() {
		got, stats, err := blaze.Wrap(rdd, mgr).ReduceAcc(jvmsim.New(cls))
		if err != nil {
			return "blaze", err.Error()
		}
		if !stats.UsedFPGA {
			return "blaze", "pure kernel fell back to the JVM: " + stats.Fallback
		}
		if !soakSameVal(redJVM, got) {
			return "blaze-vs-jvm", fmt.Sprintf("reduced: jvm %v, blaze %v", redJVM, got)
		}
	} else {
		got, stats, err := blaze.Wrap(rdd, mgr).MapAcc(jvmsim.New(cls))
		if err != nil {
			return "blaze", err.Error()
		}
		if !stats.UsedFPGA {
			return "blaze", "pure kernel fell back to the JVM: " + stats.Fallback
		}
		for i := range got {
			if !soakSameVal(outs[i], got[i]) {
				return "blaze-vs-jvm", fmt.Sprintf("task %d: jvm %v, blaze %v", i, outs[i], got[i])
			}
		}
	}
	return "", ""
}

// runSoakOracles replays the kernel on the traced JVM with the three
// analysis oracles attached (absint interval soundness, dependence
// verdicts, access-pattern claims) — the one-sided contracts that need
// a concrete execution to falsify.
func runSoakOracles(t *testing.T, k *kdslgen.Kernel, seed int64) {
	t.Helper()
	cls, err := kdsl.CompileSource(k.Source)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := b2c.Compile(cls)
	if err != nil {
		t.Fatal(err)
	}
	facts, err := absint.AnalyzeClass(cls)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(soakTaskSeed(seed, k.ID)))
	tasks := make([]jvmsim.Val, soakTasks)
	for i := range tasks {
		tasks[i] = soakVal(k.NewTask(rng))
	}

	vm := jvmsim.New(cls)
	check := &soundnessChecker{t: t, name: k.Name, facts: facts.Call}
	vm.Trace = check.hook
	outs := make([]jvmsim.Val, 0, soakTasks)
	for i, task := range tasks {
		out, err := vm.Call(task)
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		outs = append(outs, out)
	}
	if cls.Reduce != nil {
		rcheck := &soundnessChecker{t: t, name: k.Name, facts: facts.Reduce}
		vm.Trace = rcheck.hook
		acc := outs[0]
		for _, o := range outs[1:] {
			if acc, err = vm.Reduce(acc, o); err != nil {
				t.Fatal(err)
			}
		}
	}

	dep := depend.Analyze(kern)
	chains := chainsByPos(kern, cls.Call)
	if len(chains) > 0 {
		rec := &depRecorder{
			call:   cls.Call,
			chains: chains,
			events: map[arrElem][]arrAccess{},
			pin:    map[uintptr][]cir.Value{},
		}
		dvm := jvmsim.New(cls)
		dvm.Trace = rec.hook
		for i, task := range tasks {
			rec.task = int64(i)
			if _, err := dvm.Call(task); err != nil {
				t.Fatalf("task %d: %v", i, err)
			}
		}
		rec.check(t, k.Name, dep)
	}

	acc := access.Analyze(kern)
	if sites := claimedSites(kern, acc, cls.Call); len(sites) > 0 {
		rec := &accRecorder{
			call:   cls.Call,
			sites:  sites,
			events: map[cir.Pos][]accEvent{},
			pin:    map[uintptr][]cir.Value{},
		}
		avm := jvmsim.New(cls)
		avm.Trace = rec.hook
		for i, task := range tasks {
			rec.task = int64(i)
			if _, err := avm.Call(task); err != nil {
				t.Fatalf("task %d: %v", i, err)
			}
		}
		rec.check(t, k.Name)
	}
}

// writeSoakFailure persists a shrunk reproducer and returns its path.
func writeSoakFailure(t *testing.T, dir string, k *kdslgen.Kernel) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("mkdir %s: %v", dir, err)
	}
	path := filepath.Join(dir, k.Name+".kdsl")
	if err := os.WriteFile(path, []byte(k.Source), 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	return path
}

// TestSoakGeneratedKernels is the soak driver: -soak.n kernels from
// -soak.seed, each through the full pipeline plus the trace oracles. On
// a pipeline failure the kernel is shrunk against "fails at the same
// stage" and the minimal source lands in testdata/soak_failures/ (CI
// uploads that directory as an artifact).
func TestSoakGeneratedKernels(t *testing.T) {
	seed, n := *soakSeed, *soakN
	kernels := kdslgen.Generate(seed, n)
	for i, k := range kernels {
		i, k := i, k
		t.Run(fmt.Sprintf("K%03d_%s", i, strings.Join(k.Tags, "_")), func(t *testing.T) {
			stage, detail := runSoakPipeline(k, seed)
			if stage != "" {
				min := k.Shrink(func(c *kdslgen.Kernel) bool {
					s, _ := runSoakPipeline(c, seed)
					return s == stage
				})
				path := writeSoakFailure(t, filepath.Join("testdata", "soak_failures"), min)
				t.Fatalf("stage %s: %s\nminimal reproducer (%d statements) written to %s:\n%s",
					stage, detail, min.StmtCount(), path, min.Source)
			}
			runSoakOracles(t, k, seed)
		})
	}
}

// TestSoakNegatives drives the generator's tagged invalid kernels
// through the same front end and asserts each is rejected at its tagged
// stage; purity cases additionally exercise the blaze gate: they run
// fine on the JVM (matching their reference semantics) but must never
// offload even with an accelerator registered.
func TestSoakNegatives(t *testing.T) {
	for _, neg := range kdslgen.GenerateNegatives(*soakSeed, 11) {
		neg := neg
		t.Run(fmt.Sprintf("%s_%s", neg.Name, neg.Stage), func(t *testing.T) {
			cls, err := kdsl.CompileSource(neg.Source)
			switch neg.Stage {
			case kdslgen.RejectParse, kdslgen.RejectCheck:
				if err == nil {
					t.Fatalf("%s case compiled; want rejection (%s)", neg.Stage, neg.Why)
				}
				return
			}
			// Purity: compiles, runs on the JVM, never offloads.
			if err != nil {
				t.Fatalf("purity case must compile, got: %v", err)
			}
			facts, err := absint.AnalyzeClass(cls)
			if err != nil {
				t.Fatal(err)
			}
			if facts.Pure() {
				t.Fatalf("purity case reported pure (%s)", neg.Why)
			}
			mgr := blaze.NewManager(fpga.VU9P())
			acc := &blaze.Accelerator{ID: cls.ID, Layout: blaze.Layout{Class: cls},
				Design: &fpga.Design{CyclesPerTask: 1, FreqMHz: 100, BytesPerTask: 1}}
			if err := mgr.Register(acc); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(soakTaskSeed(*soakSeed, neg.Name)))
			raw := neg.Kernel.NewTask(rng)
			tasks := []jvmsim.Val{soakVal(raw)}
			// The reference evaluator aliases (and here mutates) its
			// input arrays, so it runs against its own copy.
			want, err := neg.Kernel.Eval(raw)
			if err != nil {
				t.Fatal(err)
			}
			out, stats, err := blaze.Wrap(spark.Parallelize(spark.NewContext(), tasks, 1), mgr).
				MapAcc(jvmsim.New(cls))
			if err != nil {
				t.Fatal(err)
			}
			if stats.UsedFPGA || !strings.Contains(stats.Fallback, "impure") {
				t.Fatalf("impure kernel offloaded or wrong diagnostic: %+v", stats)
			}
			if len(out) != 1 || !soakSameField(want, out[0]) {
				t.Fatalf("JVM fallback diverged from reference: %v vs %v", want, out)
			}
		})
	}
}

// TestSoakShrinkArtifact proves the failure path end to end without a
// real toolchain bug: an injected reference-evaluator defect (Sub
// computed as Add) makes a generated kernel fail ref-vs-jvm, the
// shrinker reduces it, and the reproducer file appears where CI looks.
func TestSoakShrinkArtifact(t *testing.T) {
	var victim *kdslgen.Kernel
	for _, k := range kdslgen.Generate(11, 24) {
		if s, _ := runSoakPipeline(k, 11); s != "" {
			t.Fatalf("kernel %s fails the clean pipeline", k.Name)
		}
		bad := k.WithEvalDefect()
		if s, _ := runSoakPipeline(bad, 11); s == "ref-vs-jvm" {
			victim = bad
			break
		}
	}
	if victim == nil {
		t.Fatal("no generated kernel is sensitive to the injected Sub-as-Add defect")
	}
	min := victim.Shrink(func(c *kdslgen.Kernel) bool {
		s, _ := runSoakPipeline(c, 11)
		return s == "ref-vs-jvm"
	})
	if min.StmtCount() > victim.StmtCount() {
		t.Errorf("shrinking grew the kernel: %d -> %d statements", victim.StmtCount(), min.StmtCount())
	}
	dir := t.TempDir()
	path := writeSoakFailure(t, dir, min)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != min.Source {
		t.Error("artifact does not round-trip the minimal source")
	}
	t.Logf("injected defect shrunk to %d statements at %s", min.StmtCount(), path)
}
