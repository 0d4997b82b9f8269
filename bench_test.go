package s2fa

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus micro-benchmarks for the pipeline stages. The
// experiment benches regenerate the corresponding artifact end to end on
// every iteration (virtual synthesis clock — seconds of real time for
// four modeled hours of DSE).
//
//	go test -bench=. -benchmem

import (
	"math/rand"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/b2c"
	"s2fa/internal/blaze"
	"s2fa/internal/ccache"
	"s2fa/internal/cir"
	"s2fa/internal/compile"
	"s2fa/internal/dse"
	"s2fa/internal/exp"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdsl"
	"s2fa/internal/merlin"
	"s2fa/internal/space"
)

// BenchmarkFig3DSETrajectories regenerates Fig. 3: S2FA vs vanilla
// OpenTuner DSE trajectories for every kernel.
func BenchmarkFig3DSETrajectories(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(1)
		r, err := exp.Fig3(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Series) != len(exp.AppNames()) {
			b.Fatalf("got %d series, want %d", len(r.Series), len(exp.AppNames()))
		}
	}
}

// BenchmarkFig4Speedups regenerates Fig. 4: manual and S2FA design
// speedups over the JVM for every kernel.
func BenchmarkFig4Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(1)
		r, err := exp.Fig4(s)
		if err != nil {
			b.Fatal(err)
		}
		if r.MeanSpeedup <= 1 {
			b.Fatalf("mean speedup %.2f", r.MeanSpeedup)
		}
	}
}

// BenchmarkTable1DesignSpaces regenerates the per-application design
// space summary (Table 1 instantiated).
func BenchmarkTable1DesignSpaces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(1)
		rows, err := exp.Table1(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(exp.AppNames()) {
			b.Fatalf("got %d rows, want %d", len(rows), len(exp.AppNames()))
		}
	}
}

// BenchmarkTable2ResourceUtilization regenerates Table 2: resource
// utilization and frequency of the best DSE designs.
func BenchmarkTable2ResourceUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(1)
		rows, err := exp.Table2(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(exp.AppNames()) {
			b.Fatalf("got %d rows, want %d", len(rows), len(exp.AppNames()))
		}
	}
}

// BenchmarkStoppingCriteriaAblation regenerates the §5.2 stopping
// criteria study (entropy vs trivial).
func BenchmarkStoppingCriteriaAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(1)
		if _, err := exp.StoppingAblation(s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Pipeline micro-benchmarks ---

// BenchmarkFrontend measures kdsl parsing + type checking + bytecode
// generation across every kernel.
func BenchmarkFrontend(b *testing.B) {
	srcs := make([]string, 0, 8)
	for _, a := range apps.All() {
		srcs = append(srcs, a.Source)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := kdsl.CompileSource(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBytecodeToC measures the decompiler (CFG, lifting,
// structuring, flattening) across every kernel.
func BenchmarkBytecodeToC(b *testing.B) {
	var cls []*apps.App
	for _, a := range apps.All() {
		if _, err := a.Class(); err != nil {
			b.Fatal(err)
		}
		cls = append(cls, a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range cls {
			c, _ := a.Class()
			if _, err := b2c.Compile(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFrontendScratch is BenchmarkFrontend with reused arena
// buffers (compile.Scratch): the allocation delta between the two is
// the frontend's per-kernel transient garbage.
func BenchmarkFrontendScratch(b *testing.B) {
	srcs := make([]string, 0, 8)
	for _, a := range apps.All() {
		srcs = append(srcs, a.Source)
	}
	sc := compile.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := kdsl.CompileSourceScratch(src, sc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBytecodeToCScratch is BenchmarkBytecodeToC with reused
// verifier/abstract-interpreter buffers.
func BenchmarkBytecodeToCScratch(b *testing.B) {
	var cls []*apps.App
	for _, a := range apps.All() {
		if _, err := a.Class(); err != nil {
			b.Fatal(err)
		}
		cls = append(cls, a)
	}
	sc := compile.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range cls {
			c, _ := a.Class()
			if _, err := b2c.CompileScratch(c, nil, sc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompileCold measures the full source-to-kernel pipeline
// (frontend + verify + absint + b2c) per kernel set, no caching.
func BenchmarkCompileCold(b *testing.B) {
	srcs := make([]string, 0, 8)
	for _, a := range apps.All() {
		srcs = append(srcs, a.Source)
	}
	sc := compile.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			cls, err := kdsl.CompileSourceScratch(src, sc)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := b2c.CompileScratch(cls, nil, sc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompileCached measures the same pipeline served from the
// content-addressed compile cache (every iteration after the first is a
// source-memo hit: one SHA-256 of the source plus one integrity check of
// the cached kernel).
func BenchmarkCompileCached(b *testing.B) {
	srcs := make([]string, 0, 8)
	for _, a := range apps.All() {
		srcs = append(srcs, a.Source)
	}
	cache := ccache.New()
	sc := compile.NewScratch()
	for _, src := range srcs { // warm the cache
		if _, _, err := cache.CompileSource(src, nil, sc); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, _, err := cache.CompileSource(src, nil, sc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHLSEstimate measures one analytic synthesis evaluation of the
// Smith-Waterman kernel.
func BenchmarkHLSEstimate(b *testing.B) {
	a := apps.Get("S-W")
	k, err := a.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	dev := fpga.VU9P()
	sp := space.Identify(k)
	ann, err := merlin.Annotate(k, sp.Directives(sp.PerformanceSeed()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hls.Estimate(ann, dev, int64(a.Tasks), hls.Options{})
	}
}

// BenchmarkHLSEstimateWithFacts measures one design-point evaluation of
// the Smith-Waterman kernel priced from the kernel's precomputed facts,
// the way the DSE evaluator prices every fresh point.
func BenchmarkHLSEstimateWithFacts(b *testing.B) {
	a := apps.Get("S-W")
	k, err := a.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	dev := fpga.VU9P()
	sp := space.Identify(k)
	ann, err := merlin.Annotate(k, sp.Directives(sp.PerformanceSeed()))
	if err != nil {
		b.Fatal(err)
	}
	facts := hls.Analyze(k)
	design := facts.DesignOf(ann)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hls.EstimateWith(facts, design, dev, int64(a.Tasks), hls.Options{})
	}
}

// BenchmarkPointKey measures the two identities of a Smith-Waterman
// design point: the reporting Key and the packed key the DSE's memo and
// dedup maps use.
func BenchmarkPointKey(b *testing.B) {
	k, err := apps.Get("S-W").Kernel()
	if err != nil {
		b.Fatal(err)
	}
	pt := space.Identify(k).PerformanceSeed()
	b.Run("Key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keySink = pt.Key()
		}
	})
	b.Run("Packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			packedSink = pt.Packed()
		}
	})
}

// Sinks keep the compiler from eliding the measured calls.
var (
	keySink    string
	packedSink space.PackedKey
)

// BenchmarkMerlinMaterialize measures structural transformation (tile +
// unroll with tree reduction) of the LR kernel.
func BenchmarkMerlinMaterialize(b *testing.B) {
	a := apps.Get("LR")
	k, err := a.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	d := merlin.Directives{Loops: map[string]cir.LoopOpt{
		k.TaskLoopID: {Parallel: 3, Pipeline: cir.PipeOn},
	}}
	for _, l := range k.Loops() {
		if l.ID != k.TaskLoopID && l.TripCount() >= 4 {
			d.Loops[l.ID] = cir.LoopOpt{Parallel: 4}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merlin.Materialize(k, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJVMInterpreter measures the bytecode interpreter on AES
// blocks (tasks/op for the baseline cost model).
func BenchmarkJVMInterpreter(b *testing.B) {
	a := apps.Get("AES")
	cls, err := a.Class()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	tasks := a.Gen(rng, 16)
	vm := jvmsim.New(cls)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Call(tasks[i%len(tasks)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJVMBaseline measures the single-thread JVM baseline on every
// workload under both engines: the switch-dispatch interpreter and the
// closure-compiled template JIT. Outputs and Counts are bit-identical
// across engines (internal/apps TestJITDifferentialAllApps); this
// measures the wall-clock the suite stops spending on its largest
// serial cost center.
func BenchmarkJVMBaseline(b *testing.B) {
	for _, a := range apps.All() {
		a := a
		cls, err := a.Class()
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		tasks := a.Gen(rng, 8)
		b.Run(a.Name+"/interp", func(b *testing.B) {
			vm := jvmsim.New(cls)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vm.CallBatch(tasks); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(a.Name+"/jit", func(b *testing.B) {
			vm, err := jvmsim.NewJIT(cls)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vm.CallBatch(tasks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelEvaluator measures the HLS-C evaluator on KMeans tasks
// (functional FPGA emulation speed).
func BenchmarkKernelEvaluator(b *testing.B) {
	a := apps.Get("KMeans")
	cls, err := a.Class()
	if err != nil {
		b.Fatal(err)
	}
	k, err := a.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	tasks := a.Gen(rng, 64)
	layout := blaze.Layout{Class: cls, Kernel: k}
	bufs, err := layout.Serialize(tasks)
	if err != nil {
		b.Fatal(err)
	}
	for name, out := range layout.AllocOutputs(len(tasks)) {
		bufs[name] = out
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := cir.NewEvaluator(k)
		if err := ev.Execute(len(tasks), bufs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialization measures the Blaze data processing methods
// (JVM objects <-> flat kernel buffers) on S-W pairs.
func BenchmarkSerialization(b *testing.B) {
	a := apps.Get("S-W")
	cls, err := a.Class()
	if err != nil {
		b.Fatal(err)
	}
	k, err := a.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	tasks := a.Gen(rng, 128)
	layout := blaze.Layout{Class: cls, Kernel: k}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.Serialize(tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerializationReuse is BenchmarkSerialization through a
// reused Encoder (the runtime's steady-state offload path): the encode
// buffers are grown once and rewritten per batch.
func BenchmarkSerializationReuse(b *testing.B) {
	a := apps.Get("S-W")
	cls, err := a.Class()
	if err != nil {
		b.Fatal(err)
	}
	k, err := a.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	tasks := a.Gen(rng, 128)
	layout := blaze.Layout{Class: cls, Kernel: k}
	enc := layout.NewEncoder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSEKMeans measures one full S2FA DSE run on the KMeans kernel
// (virtual 4-hour budget).
func BenchmarkDSEKMeans(b *testing.B) {
	a := apps.Get("KMeans")
	k, err := a.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	dev := fpga.VU9P()
	sp := space.Identify(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval := dse.NewEvaluator(k, sp, dev, int64(a.Tasks), hls.Options{})
		out := dse.Run(k, sp, eval, dse.S2FAConfig(int64(i)+1))
		if !out.Best.Feasible {
			b.Fatal("no feasible design")
		}
	}
}

// BenchmarkComponentAblation regenerates the per-mechanism DSE ablation
// (seeds / partitions / entropy stopping) documented in EXPERIMENTS.md.
func BenchmarkComponentAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(1)
		r, err := exp.ComponentAblation(s, []string{"KMeans", "AES"})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 2 {
			b.Fatalf("rows = %d", len(r.Rows))
		}
	}
}
