package main

import (
	"time"

	"s2fa/internal/ccache"
	"s2fa/internal/dse"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
)

// traceStats collects what the traced rounds measure besides spans:
// replayed layer timings and the counters the layers report.
type traceStats struct {
	agg layerAgg
	// pruned and proposals sum the DSE outcomes' pruned/collapsed
	// counters and evaluations.
	pruned, proposals   int
	offloads, fallbacks int
	ccHits, ccMisses    int64
	ccPoisoned          int64
	ccEntries           []float64
	ccBytes             []float64
	// Rounds of paper-eval and compile-churn repeat the same work, so
	// their replays run once.
	paperReplayed, churnReplayed bool
}

func newTraceStats() *traceStats { return &traceStats{agg: layerAgg{}} }

func (ts *traceStats) outcome(o *dse.Outcome) {
	ts.pruned += o.StaticallyPruned + o.DependPruned + o.AccessPruned + o.RangeCollapsed
	ts.proposals += o.Evaluations
}

func (ts *traceStats) paperReplay(p *paperRound) {
	dev := fpga.VU9P()
	for j, r := range p.res {
		if r == nil {
			continue
		}
		ts.outcome(r.S2FA)
		ts.outcome(r.Vanilla)
		if ts.paperReplayed {
			continue
		}
		for _, v := range p.visits[j] {
			replayPoints(ts.agg, r.Kernel, r.Space, dev, int64(r.App.Tasks), hls.Options{}, v.points)
		}
	}
	ts.paperReplayed = true
}

func (ts *traceStats) deployReplay(d *deployRound) {
	for _, q := range d.reqs {
		if q.build == nil {
			continue
		}
		ts.outcome(q.build.Outcome)
		replayPoints(ts.agg, q.build.Kernel, q.build.Space, q.fw.Device, int64(q.fw.Tasks), q.fw.HLS, q.visits.points)
		replayLint(ts.agg, q.build.Kernel)
		if !q.stats.UsedFPGA {
			ts.fallbacks++
			continue
		}
		ts.offloads++
		// The request offloaded this very batch, so the replay cannot
		// fail; if it did, only this layer's timing would be short.
		_ = replayOffload(ts.agg, q)
	}
}

func (ts *traceStats) churnStats(c *churnRound, st ccache.Stats) {
	ts.ccHits += st.Hits()
	ts.ccMisses += st.Misses
	ts.ccPoisoned += st.Poisoned
	ts.ccEntries = append(ts.ccEntries, float64(c.cache.Len()))
	ts.ccBytes = append(ts.ccBytes, float64(st.Bytes))
	if ts.churnReplayed {
		return
	}
	ts.churnReplayed = true
	for _, q := range c.w.list {
		if ref := c.w.refs[q.ref]; q.first && !ref.neg {
			// Every first-time kernel compiled cleanly when its
			// reference was made; an error would only drop its timing.
			_ = replayCompile(ts.agg, ref.src)
		}
	}
}

// metric is one named, unit-carrying number of the report.
type metric struct {
	name  string
	value float64
	unit  string
}

// layerMetrics derives the per-layer metrics from the traced rounds'
// spans and replays, and the runtime metrics from the untraced rounds.
// A layer the workload never calls reads 0.
func layerMetrics(spans []span, ts *traceStats, un, traced *phase, quality []metric) []metric {
	rows, _ := layerTable(spans)
	by := map[string]layerRow{}
	for _, r := range rows {
		by[r.name] = r
	}
	meanOf := func(name string, unit time.Duration) float64 {
		if r, ok := by[name]; ok {
			return float64(r.total) / float64(unit) / float64(r.count)
		}
		return ts.agg.mean(name, unit)
	}
	count := func(name string) float64 { return float64(by[name].count) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	us, ms := time.Microsecond, time.Millisecond

	runs := count("dse.run")
	fresh, memo := count("dse.eval.fresh"), count("dse.eval.memo")
	dseSelf := ratio(float64(by["dse.run"].self)/float64(ms), runs)
	b2cSelf := max(0, meanOf("b2c.compile", us)-ts.agg.mean("lint.lint", us))
	est := ts.agg.mean("hls.estimate", us)
	ana := ts.agg.mean("hls.analysis", us)
	requests := float64(un.attempted)

	out := []metric{
		{"kdsl.compile_us", meanOf("kdsl.compile", us), "us"},
		{"bytecode.verify_us", meanOf("bytecode.verify", us), "us"},
		{"absint.analyze_us", meanOf("absint.analyze", us), "us"},
		{"b2c.self_us", b2cSelf, "us"},
		{"lint.lint_us", ts.agg.mean("lint.lint", us), "us"},
		{"ccache.hit_ratio", ratio(float64(ts.ccHits), float64(ts.ccHits+ts.ccMisses)), "ratio"},
		{"ccache.hit_us", meanOf("ccache.hit", us), "us"},
		{"ccache.miss_us", meanOf("ccache.miss", us), "us"},
		{"ccache.entries", mean(ts.ccEntries), "count"},
		{"ccache.bytes", mean(ts.ccBytes), "bytes"},
		{"ccache.poisoned", float64(ts.ccPoisoned), "count"},
		{"space.identify_us", meanOf("space.identify", us), "us"},
		{"dse.run_ms", meanOf("dse.run", ms), "ms"},
		{"dse.self_ms", dseSelf, "ms"},
		{"dse.evals", ratio(fresh+memo, runs), "count"},
		{"dse.fresh", ratio(fresh, runs), "count"},
		{"dse.memo_hit_ratio", ratio(memo, fresh+memo), "ratio"},
		{"dse.prune_ratio", ratio(float64(ts.pruned), float64(ts.proposals)), "ratio"},
		{"dse.eval_us", meanOf("dse.eval.fresh", us), "us"},
		{"merlin.annotate_us", ts.agg.mean("merlin.annotate", us), "us"},
		{"hls.estimate_us", est, "us"},
		{"hls.analysis_us", ana, "us"},
		{"hls.analysis_share", ratio(ana, est), "ratio"},
		{"space.point_key_ns", ts.agg.mean("space.point_key", time.Nanosecond), "ns"},
		{"jvmsim.baseline_ms", meanOf("jvmsim.baseline", ms), "ms"},
		{"blaze.offload_us", meanOf("blaze.offload", us), "us"},
		{"blaze.serialize_us", ts.agg.mean("blaze.serialize", us), "us"},
		{"blaze.exec_us", ts.agg.mean("blaze.exec", us), "us"},
		{"blaze.deserialize_us", ts.agg.mean("blaze.deserialize", us), "us"},
		{"blaze.fallback_frac", ratio(float64(ts.fallbacks), float64(ts.offloads+ts.fallbacks)), "ratio"},
		{"exp.assemble_ms", meanOf("exp.assemble", ms), "ms"},
		{"core.deploy_us", meanOf("core.deploy", us), "us"},
		{"runtime.gc_cpu_frac", un.rt.gcFrac(), "ratio"},
		{"runtime.sched_wait_p99_us", un.rt.schedP99() * 1e6, "us"},
		{"runtime.alloc_mb_per_req", ratio(float64(un.rt.alloc)/(1<<20), requests), "MB"},
		{"trace.overhead_frac", ratio(traced.elapsed.Seconds(), un.elapsed.Seconds()) - 1, "ratio"},
	}
	return append(out, quality...)
}
