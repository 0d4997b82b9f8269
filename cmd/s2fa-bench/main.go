// Command s2fa-bench regenerates the paper's evaluation (§5): the DSE
// trajectory comparison of Fig. 3, the resource/frequency Table 2, the
// speedup comparison of Fig. 4, the per-application design-space summary
// (Table 1), and the stopping-criteria ablation. All runs use a virtual
// synthesis clock, so the full evaluation completes in seconds.
//
// Usage:
//
//	s2fa-bench                  # everything
//	s2fa-bench -exp fig4        # one experiment
//	s2fa-bench -seed 3          # different (still deterministic) run
//	s2fa-bench -bench BENCH_pr4.json        # record the performance baseline
//	s2fa-bench -bench-check BENCH_pr4.json  # re-measure, fail on regression
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"s2fa/internal/exp"
	"s2fa/internal/obs"
)

func main() {
	var (
		which      = flag.String("exp", "all", "experiment: fig3 | fig4 | table1 | table2 | ablation | components | all")
		seed       = flag.Int64("seed", 1, "random seed (reproducible)")
		jit        = flag.Bool("jit", true, "execute the JVM baselines through the closure-compiled engine (-jit=false interprets; results are byte-identical either way)")
		benchOut   = flag.String("bench", "", "measure the performance baseline (Fig. 3 with both JVM-baseline engines + stage micros) and write it to this JSON file")
		benchCheck = flag.String("bench-check", "", "re-measure the baseline and fail on regression against this committed JSON file")
		compileN   = flag.Int("compile", 0, "measure compile throughput: N passes over the whole kernel suite through frontend + b2c, cold vs served from the compile cache (kernels/sec)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		runtimeMet = flag.String("runtime-metrics", "", "sample Go runtime metrics (GC pause, heap, allocs) while the benchmarks run and write the gauge snapshot JSON to this file at exit")
	)
	flag.Parse()

	// Profiling hooks mirror cmd/s2fa: they observe the benchmark
	// process and never feed anything back into the measured runs.
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
	if *runtimeMet != "" {
		reg := obs.NewRegistry()
		// Defers run LIFO: the snapshot writer is registered first so the
		// sampler's final sample (its stop runs earlier) is included.
		defer func() {
			f, err := os.Create(*runtimeMet)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			if err := reg.WriteJSON(f); err != nil {
				fatal(err)
			}
		}()
		stop := obs.StartRuntimeSampler(reg, 0)
		defer stop()
	}

	if *compileN > 0 {
		if err := runCompileBench(*compileN); err != nil {
			fatal(err)
		}
		return
	}

	if *benchOut != "" || *benchCheck != "" {
		var err error
		if *benchOut != "" {
			err = writeBench(*benchOut, *seed)
		} else {
			err = checkBench(*benchCheck, *seed)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "s2fa-bench:", err)
			os.Exit(1)
		}
		return
	}

	s := exp.NewSuite(*seed)
	s.JIT = *jit
	run := func(name string, f func() (string, error)) {
		if *which != "all" && *which != name {
			return
		}
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "s2fa-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	run("table1", func() (string, error) {
		rows, err := exp.Table1(s)
		if err != nil {
			return "", err
		}
		return exp.RenderTable1(rows), nil
	})
	run("fig3", func() (string, error) {
		r, err := exp.Fig3(s, nil)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("table2", func() (string, error) {
		rows, err := exp.Table2(s)
		if err != nil {
			return "", err
		}
		return exp.RenderTable2(rows), nil
	})
	run("fig4", func() (string, error) {
		r, err := exp.Fig4(s)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("ablation", func() (string, error) {
		r, err := exp.StoppingAblation(s, nil)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("components", func() (string, error) {
		r, err := exp.ComponentAblation(s, nil)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s2fa-bench:", err)
	os.Exit(1)
}
