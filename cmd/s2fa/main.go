// Command s2fa runs the Spark-to-FPGA-Accelerator pipeline on one kernel:
// it compiles Scala-subset kernel source (or one of the built-in paper
// workloads) to bytecode, decompiles it to HLS C, explores the design
// space, and reports the chosen accelerator design.
//
// Usage:
//
//	s2fa -app S-W                       # built-in workload
//	s2fa -src kernel.scala              # your own kernel class
//	s2fa -app KMeans -dse vanilla       # OpenTuner baseline exploration
//	s2fa -app AES -dump-bytecode -dump-c
//	s2fa -app S-W -lint                 # static verifier findings only
//	s2fa -src kernel.scala -explain     # abstract-interpretation fact report
//	s2fa -app S-W -trace run.json -trace-format chrome   # Perfetto trace
//	s2fa -app KMeans -summary           # post-run observability report
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"s2fa/internal/absint"
	"s2fa/internal/access"
	"s2fa/internal/apps"
	"s2fa/internal/b2c"
	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
	"s2fa/internal/core"
	"s2fa/internal/depend"
	"s2fa/internal/dse"
	"s2fa/internal/exp"
	"s2fa/internal/kdsl"
	"s2fa/internal/lint"
	"s2fa/internal/obs"
)

func main() {
	var (
		srcPath     = flag.String("src", "", "path to a kernel class source file")
		appName     = flag.String("app", "", "built-in workload name (PR, KMeans, KNN, LR, SVM, LLS, AES, S-W)")
		dseMode     = flag.String("dse", "s2fa", "exploration mode: s2fa | vanilla | trivial")
		tasks       = flag.Int("tasks", 4096, "batch size the design is optimized for")
		seed        = flag.Int64("seed", 1, "random seed (reproducible runs)")
		jit         = flag.Bool("jit", true, "execute the JVM baseline through the closure-compiled engine (-jit=false interprets; results are byte-identical either way)")
		lintOnly    = flag.Bool("lint", false, "run the static verifier on the generated kernel, print findings, and exit (status 1 on errors)")
		explain     = flag.Bool("explain", false, "print the abstract interpreter's fact report (§3.3 violations with kdsl positions, purity, value ranges) and exit (status 1 on violations)")
		dumpBC      = flag.Bool("dump-bytecode", false, "print the compiled bytecode")
		dumpC       = flag.Bool("dump-c", false, "print the generated HLS C before DSE")
		dumpBest    = flag.Bool("dump-best", false, "print the chosen design's annotated HLS C")
		tracePath   = flag.String("trace", "", "write pipeline + DSE trace events to this file")
		traceFormat = flag.String("trace-format", "jsonl", "trace file format: jsonl | chrome (load the latter in chrome://tracing or Perfetto)")
		summary     = flag.Bool("summary", false, "print a post-run observability report (stage times, slowest HLS estimations, bandit arms, entropy sparkline)")

		metricsPath  = flag.String("metrics", "", "write a metrics-registry snapshot (per-stage latency histograms with p50/p90/p99, counters, gauges) to this file")
		metricsForm  = flag.String("metrics-format", "json", "metrics snapshot format: json (for s2fa-report) | prom (Prometheus text exposition)")
		recorderPath = flag.String("recorder", "", "attach the flight recorder and write its anomaly dumps (slow HLS estimations, budget-exhausted stops, blaze fallbacks) to this file")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		runtimeMet   = flag.Bool("runtime-metrics", false, "sample Go runtime metrics (GC pause, heap, allocs) into the metrics registry while the run executes")
	)
	flag.Parse()

	if (*srcPath == "") == (*appName == "") {
		fmt.Fprintln(os.Stderr, "specify exactly one of -src or -app")
		flag.Usage()
		os.Exit(2)
	}

	var src string
	switch {
	case *srcPath != "":
		data, err := os.ReadFile(*srcPath)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	default:
		a := apps.Get(*appName)
		if a == nil {
			fmt.Fprintln(os.Stderr, "s2fa: "+unknownAppMessage(*appName))
			os.Exit(2)
		}
		src = a.Source
		if *tasks == 4096 {
			*tasks = a.Tasks
		}
	}

	// Observability: trace file and/or in-process summary collector. A nil
	// trace is free; a live one never changes the run (see internal/obs).
	var sinks []obs.Sink
	var collector *obs.Collector
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		switch *traceFormat {
		case "jsonl":
			sinks = append(sinks, obs.NewJSONL(f))
		case "chrome":
			sinks = append(sinks, obs.NewChrome(f))
		default:
			fatal(fmt.Errorf("unknown -trace-format %q (want jsonl or chrome)", *traceFormat))
		}
	}
	if *summary {
		collector = obs.NewCollector()
		sinks = append(sinks, collector)
	}
	var recorder *obs.Recorder
	if *recorderPath != "" {
		recorder = obs.NewRecorder(obs.RecorderConfig{})
		sinks = append(sinks, recorder)
	}
	var reg *obs.Registry
	if *metricsPath != "" || *runtimeMet {
		reg = obs.NewRegistry()
	}
	var tr *obs.Trace
	if len(sinks) > 0 || reg != nil {
		var opts []obs.Option
		if reg != nil {
			opts = append(opts, obs.WithRegistry(reg))
		}
		sink := obs.Sink(obs.Discard())
		if len(sinks) > 0 {
			sink = obs.Multi(sinks...)
		}
		tr = obs.New(sink, opts...)
	}

	// Profiling hooks. The profiles and samplers observe the run; they
	// never feed anything back into it.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	// Defers run LIFO: the snapshot writer is registered first so the
	// sampler's final sample (its stop runs earlier) is included.
	if reg != nil && *metricsPath != "" {
		defer func() {
			f, err := os.Create(*metricsPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			switch *metricsForm {
			case "json":
				err = reg.WriteJSON(f)
			case "prom":
				err = reg.WritePrometheus(f)
			default:
				err = fmt.Errorf("unknown -metrics-format %q (want json or prom)", *metricsForm)
			}
			if err != nil {
				fatal(err)
			}
		}()
	}
	if *runtimeMet {
		stop := obs.StartRuntimeSampler(reg, 0)
		defer stop()
	}
	if recorder != nil {
		defer func() {
			f, err := os.Create(*recorderPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			if err := recorder.WriteJSON(f); err != nil {
				fatal(err)
			}
			if n := len(recorder.Dumps()); n > 0 {
				fmt.Printf("flight recorder: %d anomaly dump(s) written to %s\n", n, *recorderPath)
			}
		}()
	}

	fw := core.New()
	fw.Seed = *seed
	fw.Tasks = *tasks
	fw.Trace = tr
	var cfg dse.Config
	switch *dseMode {
	case "s2fa":
		cfg = dse.S2FAConfig(*seed)
	case "vanilla":
		cfg = dse.VanillaConfig(*seed)
	case "trivial":
		cfg = dse.TrivialStopConfig(*seed)
	default:
		fatal(fmt.Errorf("unknown -dse mode %q", *dseMode))
	}
	fw.DSE = &cfg

	// The file label prefixed to §3.3 diagnostics (file:line:col).
	fileLabel := *srcPath
	if fileLabel == "" {
		fileLabel = *appName + ".kdsl"
	}

	kspan := tr.Begin("kdsl", "compile", obs.Int("src_bytes", len(src)))
	cls, err := kdsl.CompileSource(src)
	kspan.End(obs.Bool("ok", err == nil))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("compiled class %s (accelerator id %q, pattern %s)\n", cls.Name, cls.ID, cls.Pattern())
	if *dumpBC {
		fmt.Println(bytecode.DisassembleClass(cls))
	}

	if *explain {
		facts, err := absint.DiagnoseClass(cls)
		if err != nil {
			fatal(err)
		}
		fmt.Print(absint.Explain(facts, fileLabel))
		if len(facts.Violations()) > 0 {
			os.Exit(1)
		}
		fmt.Print(dependReport(cls, fileLabel))
		fmt.Print(accessReport(cls, fileLabel))
		return
	}
	if *lintOnly {
		// §3.3 legality first: a violating kernel never reaches the C
		// generator, so its diagnostics come from the bytecode analyzer
		// with kdsl positions attached.
		facts, err := absint.DiagnoseClass(cls)
		if err != nil {
			fatal(err)
		}
		if vs := facts.Violations(); len(vs) > 0 {
			fmt.Printf("lint: %s: %d §3.3 violation(s)\n", cls.Name, len(vs))
			for _, v := range vs {
				fmt.Println(v.Sourced(fileLabel))
			}
			os.Exit(1)
		}
	}

	kernel, err := b2c.CompileTraced(cls, tr)
	if err != nil {
		// Surface any sourced §3.3 diagnostics alongside the compile error.
		if facts, derr := absint.DiagnoseClass(cls); derr == nil {
			for _, v := range facts.Violations() {
				fmt.Fprintln(os.Stderr, "s2fa: "+v.Sourced(fileLabel))
			}
		}
		fatal(err)
	}
	if *dumpC {
		fmt.Println("--- generated HLS C (pre-DSE) ---")
		fmt.Println(cir.Print(kernel))
	}
	if *lintOnly {
		fs := lint.Lint(kernel)
		if len(fs) == 0 {
			fmt.Printf("lint: %s: no findings\n", kernel.Name)
			return
		}
		fmt.Printf("lint: %s: %d error(s), %d warning(s)\n", kernel.Name, len(fs.Errors()), len(fs.Warnings()))
		fmt.Println(fs.String())
		if fs.HasErrors() {
			os.Exit(1)
		}
		return
	}

	build, err := fw.BuildFromClass(cls, kernel)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("design space: %d parameters, %.3g points\n", len(build.Space.Params), build.Space.Cardinality())
	fmt.Printf("DSE (%s): %d evaluations over %.0f virtual minutes, %d partitions, stopped: %s\n",
		*dseMode, build.Outcome.Evaluations, build.Outcome.TotalMinutes,
		len(build.Outcome.Partitions), build.Outcome.StopReason)
	for i, p := range build.Outcome.Partitions {
		fmt.Printf("  partition %d: %s\n", i, p.String())
	}
	fmt.Printf("best design: %v\n", build.Best)
	fmt.Printf("estimated kernel time for %d tasks: %.6fs\n", *tasks, build.Best.Seconds())
	// For built-in workloads, report the Fig. 4 comparison point: the
	// modeled single-thread JVM executor time and the resulting speedup.
	if a := apps.Get(*appName); a != nil {
		engine := "interpreter"
		if *jit {
			engine = "jit"
		}
		jvmSec, err := exp.JVMSecondsForEngine(a, *tasks, *jit, tr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("JVM baseline (single-thread executor, %s): %.6fs\n", engine, jvmSec)
		if s := build.Best.Seconds(); s > 0 {
			fmt.Printf("speedup over JVM: %.2fx\n", jvmSec/s)
		}
	}
	if *dumpBest {
		fmt.Println("--- chosen design (annotated HLS C) ---")
		fmt.Println(build.BestHLSSource())
	}
	if err := tr.Close(); err != nil {
		fatal(fmt.Errorf("writing trace: %w", err))
	}
	if collector != nil {
		fmt.Println("--- run summary ---")
		fmt.Print(collector.Render())
	}
}

// dependReport renders the exact dependence analysis behind every
// legality verdict, II bound, and DSE collapse for the compiled kernel:
// the per-loop verdict table (witness access pairs carry kdsl positions)
// followed by "why would this factor be rejected?" guidance probing the
// most aggressive directives on each loop. Kernels the C generator
// rejects return nothing — the §3.3 report above already covers them.
func dependReport(cls *bytecode.Class, fileLabel string) string {
	kernel, err := b2c.Compile(cls)
	if err != nil {
		return ""
	}
	dep := depend.Analyze(kernel)
	var b strings.Builder
	b.WriteString("\n")
	b.WriteString(dep.Table())
	fmt.Fprintf(&b, "  (witness positions are %s:line:col)\n", fileLabel)
	var notes []string
	for _, id := range dep.Order {
		notes = append(notes, dep.ExplainFactor(id, cir.LoopOpt{Parallel: 16, Pipeline: cir.PipeOn})...)
	}
	if len(notes) > 0 {
		b.WriteString("directive guidance (probing parallel 16 + pipeline on every loop):\n")
		for _, n := range notes {
			fmt.Fprintf(&b, "  %s\n", n)
		}
	}
	return b.String()
}

// accessReport renders the static memory-access classification behind
// the DDR bandwidth model, the bank-port lane caps, and the
// access-driven DSE collapse: the per-loop access table (class, stride,
// footprint, reuse — site positions carry kdsl coordinates) followed by
// "why is this kernel memory-bound?" guidance naming gather buffers and
// port-capped loops. Kernels the C generator rejects return nothing —
// the §3.3 report above already covers them.
func accessReport(cls *bytecode.Class, fileLabel string) string {
	kernel, err := b2c.Compile(cls)
	if err != nil {
		return ""
	}
	acc := access.Analyze(kernel)
	var b strings.Builder
	b.WriteString("\n")
	b.WriteString(acc.Table())
	fmt.Fprintf(&b, "  (site positions are %s:line:col)\n", fileLabel)
	if notes := acc.Guidance(); len(notes) > 0 {
		b.WriteString("why is this kernel memory-bound?\n")
		for _, n := range notes {
			fmt.Fprintf(&b, "  %s\n", n)
		}
	}
	return b.String()
}

// unknownAppMessage is the -app rejection text: the bad name plus every
// accepted workload, so the fix is on screen.
func unknownAppMessage(name string) string {
	return fmt.Sprintf("unknown app %q (valid workloads: %s)",
		name, strings.Join(apps.Names(), ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s2fa:", err)
	os.Exit(1)
}
