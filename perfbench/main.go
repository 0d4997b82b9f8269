// Command perfbench is the repository benchmark. It runs one workload
// for a given seed and prints every end-to-end metric with its unit,
// then, as its last line, one JSON object with the correctness verdict
// and the metrics:
//
//	go build -o perfbench . && ./perfbench --workload paper-eval --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it serves half the time untraced, then the same
// requests again through each layer's public entry points with a span
// around every call, and reports the per-layer metrics, the self-time
// table and the tracing overhead. The traced requests must reproduce the
// untraced outputs exactly. BENCHMARK.json at the repository root lists
// the workloads and metrics; run.py builds and runs this command from a
// source checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"s2fa/internal/apps"
	"s2fa/internal/blaze"
	"s2fa/internal/ccache"
	"s2fa/internal/core"
	"s2fa/internal/hls"
	"s2fa/internal/merlin"
)

var workloadNames = []string{"paper-eval", "kernel-deploy", "compile-churn"}

// bootReps is how many times set-up is repeated; setup_s is the median.
// bootsBeforeServing of them run before the first round.
const (
	bootReps           = 25
	bootsBeforeServing = 3
)

// heapQ is the quantile of the per-GC-cycle live heap reported as
// heap_peak_mb.
const heapQ = 0.9

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated request list")
	fs.Float64Var(&o.seconds, "seconds", 30, "seconds of measured serving")
	fs.IntVar(&trace, "trace", 0, "1: also run the traced pass and report per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "file the traced pass's spans are written to (JSON lines)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || o.seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1, --seconds positive, and no positional arguments")
		return 2
	}
	o.trace = trace == 1
	rep, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep.jsonLine())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report is the outcome of one run.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonReport struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) jsonLine() jsonReport {
	m := map[string]jsonMetric{}
	for _, x := range r.metrics {
		m[x.name] = jsonMetric{x.value, x.unit}
	}
	return jsonReport{r.correct, r.attempted, r.failed, m}
}

// newWorkload builds a workload's seeded inputs; this is preparation,
// not measured set-up.
func newWorkload(o options, ts *traceStats) (workload, error) {
	switch o.workload {
	case "paper-eval":
		// The registered apps compile once per process; do it before any
		// clock runs.
		for _, a := range apps.All() {
			if _, err := a.Kernel(); err != nil {
				return nil, err
			}
		}
		return &paperEval{seed: o.seed, ts: ts, keep: o.trace}, nil
	case "kernel-deploy":
		return &kernelDeploy{seed: o.seed, ts: ts}, nil
	case "compile-churn":
		w, err := newCompileChurn(o.seed)
		if err != nil {
			return nil, err
		}
		w.ts = ts
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
}

// boot brings a node up the way each workload's service starts: every
// registered app is compiled through a fresh compile cache, its manual
// design is built with core.BuildWithDirectives, and the accelerator is
// deployed to a fresh Blaze manager.
func boot() error {
	fw := core.New()
	fw.Cache = ccache.New()
	mgr := blaze.NewManager(fw.Device)
	for _, a := range apps.All() {
		cls, k, err := fw.Compile(a.Source)
		if err != nil {
			return fmt.Errorf("boot: %s: %w", a.Name, err)
		}
		fw.Tasks = a.Tasks
		loops, bw := a.Manual.Directives(k)
		b, err := fw.BuildWithDirectives(cls, k, merlin.Directives{Loops: loops, BitWidths: bw},
			hls.Options{StageSplit: a.Manual.StageSplit})
		if err != nil {
			return fmt.Errorf("boot: %s: %w", a.Name, err)
		}
		if err := fw.Deploy(b, mgr); err != nil {
			return fmt.Errorf("boot: %s: %w", a.Name, err)
		}
	}
	return nil
}

func execute(o options, out io.Writer) (*report, error) {
	ts := newTraceStats()
	w, err := newWorkload(o, ts)
	if err != nil {
		return nil, err
	}
	// Boots are spread over the run, a few before serving and the rest
	// evenly over the serving time, so that their median sees the same
	// host as the rest of the run. The host probe is timed before each.
	hp, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	var boots []float64
	bootOnce := func() error {
		hp.measure()
		t := time.Now()
		if err := boot(); err != nil {
			return err
		}
		boots = append(boots, time.Since(t).Seconds())
		return nil
	}
	for i := 0; i < bootsBeforeServing; i++ {
		if err := bootOnce(); err != nil {
			return nil, err
		}
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	bootBetween := func(elapsed time.Duration) error {
		due := bootsBeforeServing + int(float64(bootReps-bootsBeforeServing)*float64(elapsed)/float64(budget))
		for len(boots) < min(due, bootReps) {
			if err := bootOnce(); err != nil {
				return err
			}
		}
		return nil
	}
	runtime.GC()
	hs := startHeapSampler(5 * time.Millisecond)
	un, err := runPhase(w, budget, -1, nil, hs, hp, bootBetween)
	hs.close()
	if err != nil {
		return nil, err
	}
	if err := bootBetween(budget); err != nil {
		return nil, err
	}
	// Every time metric is given at the probe's reference host speed.
	slow := hp.slowdown()
	rawSetup := median(boots)
	q := w.tailQ()
	rawP50, p50Segs, _ := segmentedQuantile(un.latMs, un.roundLens, 0.5)
	rawTail, tailSegs, beyond := segmentedQuantile(un.latMs, un.roundLens, q)
	// The rate of the faster rounds (see fastQ): a spell of interference
	// from outside the process slows some rounds, not this.
	rawRPS, _ := quantile(un.roundRPS, 1-fastQ)
	setup, p50, tail, rps := rawSetup/slow, rawP50/slow, rawTail/slow, rawRPS*slow
	rep := &report{attempted: un.attempted, failed: un.failed}
	// A high quantile of the live heap over GC cycles, not the single
	// largest: which cycle lands on the largest transient state varies
	// from run to run.
	live := hs.samples()
	heap, _ := quantile(live, heapQ)
	heap /= 1 << 20
	fmt.Fprintf(out, "perfbench workload=%s seed=%d clients=%d trace=%v rounds=%d requests=%d measured=%.2fs\n",
		o.workload, o.seed, w.clients(), o.trace, un.rounds, un.attempted, un.elapsed.Seconds())
	fmt.Fprintf(out, "  host slowdown    %12.4f      (p%.0f of %d probes over %v; times are divided by it, raw in brackets)\n",
		slow, probeQ*100, len(hp.times), probeRef)
	fmt.Fprintf(out, "  setup_s          %12.6f s    [%.6f] (median of %d boots spread over the run)\n", setup, rawSetup, bootReps)
	fmt.Fprintf(out, "  throughput_rps   %12.4f 1/s  [%.4f] (p%.0f of %d rounds; raw %.4f over the whole run)\n",
		rps, rawRPS, (1-fastQ)*100, un.rounds, float64(un.attempted)/un.elapsed.Seconds())
	fmt.Fprintf(out, "  latency_p50_ms   %12.4f ms   [%.4f] (n=%d; p%.0f of %d segments)\n", p50, rawP50, len(un.latMs), fastQ*100, p50Segs)
	fmt.Fprintf(out, "  latency_tail_ms  %12.4f ms   [%.4f] (p%.0f, n=%d; p%.0f of %d segments, >=%d samples beyond in each)\n",
		tail, rawTail, q*100, len(un.latMs), fastQ*100, tailSegs, beyond)
	fmt.Fprintf(out, "  heap_peak_mb     %12.4f MB   (p%.0f of the live heap over %d GC cycles)\n", heap, heapQ*100, len(live))
	fmt.Fprintf(out, "  failed_frac      %12.6f      (%d/%d)\n", float64(un.failed)/float64(max(1, un.attempted)), un.failed, un.attempted)
	quality := qualityMetrics(w)
	for _, m := range quality {
		fmt.Fprintf(out, "  %-16s %12.6f %s (simulated; first round)\n", m.name, m.value, m.unit)
	}
	for _, f := range un.failures {
		fmt.Fprintln(out, "  FAIL", f)
	}

	if !o.trace {
		rep.metrics = []metric{
			{"setup_s", setup, "s"},
			{"throughput_rps", rps, "1/s"},
			{"latency_p50_ms", p50, "ms"},
			{"latency_tail_ms", tail, "ms"},
			{"heap_peak_mb", heap, "MB"},
		}
	} else {
		tr := newTracer()
		runtime.GC()
		tp, err := runPhase(w, 0, un.rounds, tr, nil, hp, nil)
		if err != nil {
			return nil, err
		}
		spans := tr.snapshot()
		rep.attempted += tp.attempted
		rep.failed += tp.failed
		for _, f := range tp.failures {
			fmt.Fprintln(out, "  FAIL (traced)", f)
		}
		if mism := compareHashes(un.hashes, tp.hashes); mism != "" {
			rep.failed++
			fmt.Fprintln(out, "  FAIL traced outputs differ from untraced:", mism)
		}
		if o.traceOut != "" {
			if err := writeSpans(o.traceOut, spans); err != nil {
				return nil, err
			}
		}
		printLayerTable(out, spans)
		rep.metrics = layerMetrics(spans, ts, un, tp, quality)
		fmt.Fprintln(out, "  per-layer metrics:")
		for _, m := range rep.metrics {
			fmt.Fprintf(out, "    %-28s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	rep.correct = rep.failed == 0
	verdict := "pass"
	if !rep.correct {
		verdict = "FAIL"
	}
	fmt.Fprintf(out, "  correctness      %s (%d failed of %d attempted)\n", verdict, rep.failed, rep.attempted)
	return rep, nil
}

// qualityMetrics are the simulated results of the first round: identical
// for a seed on every run and every machine.
func qualityMetrics(w workload) []metric {
	var simMin, speedup float64
	switch w := w.(type) {
	case *paperEval:
		simMin, speedup = w.simMin, w.speedup
	case *kernelDeploy:
		if w.simRuns > 0 {
			simMin = w.simMin / float64(w.simRuns)
		}
	}
	return []metric{
		{"quality.dse_sim_min", simMin, "min"},
		{"quality.accel_speedup_geomean", speedup, "x"},
	}
}

func compareHashes(a, b []uint64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d untraced outputs, %d traced", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("request %d", i)
		}
	}
	return ""
}

// printLayerTable prints where the traced request time went: each
// span name's call count, mean duration, self time and its share of the
// request total. The shares sum to 100% ("request" is the time inside a
// request that no layer span covers).
func printLayerTable(out io.Writer, spans []span) {
	rows, total := layerTable(spans)
	fmt.Fprintf(out, "  traced layers (%d spans, request total %.3fs):\n", len(spans), total.Seconds())
	fmt.Fprintf(out, "    %-18s %9s %12s %12s %8s\n", "span", "calls", "mean_us", "self_s", "share")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = float64(r.self) / float64(total) * 100
		}
		fmt.Fprintf(out, "    %-18s %9d %12.2f %12.4f %7.2f%%\n", r.name, r.count,
			float64(r.total)/float64(time.Microsecond)/float64(r.count), r.self.Seconds(), share)
	}
}
