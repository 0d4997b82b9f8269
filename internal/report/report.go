// Package report turns a recorded run — a JSONL trace plus an optional
// metrics snapshot — into an offline explanation: where the tool spent
// time (stage waterfall with percentiles), which fresh HLS estimations
// were slowest and why (bottleneck verdicts with their offending access
// sites), how much of the design space each static analysis pruned,
// how busy the DSE's virtual workers were, and how blaze requests
// split between accelerator offload and JVM fallback.
//
// The renderer is a pure function of its inputs: with a deterministic
// trace (injected clock) the report body is byte-reproducible, which is
// what the golden test in internal/core pins.
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode/utf8"

	"s2fa/internal/obs"
)

// Options configures rendering.
type Options struct {
	// TopN bounds the slowest-estimations table (default 5).
	TopN int
	// Markdown selects GitHub-style pipe tables; false renders aligned
	// plain-text columns for terminals.
	Markdown bool
}

func (o Options) withDefaults() Options {
	if o.TopN <= 0 {
		o.TopN = 5
	}
	return o
}

// Render produces the explanation for one run. metrics may be nil (the
// runtime-gauge section is skipped); events must be the full trace in
// emission order.
func Render(events []obs.Event, metrics *obs.MetricsSnapshot, opt Options) string {
	opt = opt.withDefaults()
	a := analyze(events)
	var b strings.Builder

	b.WriteString("# S2FA run report\n")
	a.renderOverview(&b)
	a.renderWaterfall(&b, opt)
	a.renderSlowEstimations(&b, opt)
	a.renderPrunes(&b, opt)
	renderCompileCache(&b, a, metrics, opt)
	a.renderWorkers(&b, opt)
	a.renderBlaze(&b, opt)
	renderRuntime(&b, metrics, opt)
	return b.String()
}

// span is one reconstructed begin/end pair.
type span struct {
	begin obs.Event
	end   obs.Event
	durNS int64
	seq   int // order of the begin in the stream
}

type stageAgg struct {
	name  string
	hist  *obs.Histogram // durations in µs
	total int64          // ns
	first int            // seq of first appearance, for waterfall order
}

type blazeReq struct {
	req      int64
	span     span
	children []obs.Event // offload/fallback instants carrying the same req
}

type analysis struct {
	firstNS, lastNS int64
	kernel          string
	stopReason      string
	bestObjective   float64
	incumbents      int

	stages   map[string]*stageAgg
	hls      []span // fresh estimations only
	counters map[string]int64
	misnests int

	trackBusyNS map[int]int64 // tid>0: summed top-level span time
	blaze       []blazeReq
}

func analyze(events []obs.Event) *analysis {
	a := &analysis{
		stages:      map[string]*stageAgg{},
		counters:    map[string]int64{},
		trackBusyNS: map[int]int64{},
	}
	begins := map[int64]obs.Event{}
	seqOf := map[int64]int{}
	blazeByReq := map[int64]*blazeReq{}
	var blazeOrder []int64

	for i, e := range events {
		if a.firstNS == 0 || e.NS < a.firstNS {
			a.firstNS = e.NS
		}
		if e.NS > a.lastNS {
			a.lastNS = e.NS
		}
		switch e.Ph {
		case obs.PhaseBegin:
			begins[e.ID] = e
			seqOf[e.ID] = i
			if e.Cat == "dse" && e.Name == "run" {
				if k, ok := e.Args["kernel"].(string); ok {
					a.kernel = k
				}
			}
		case obs.PhaseEnd:
			b, ok := begins[e.ID]
			if !ok {
				continue
			}
			delete(begins, e.ID)
			sp := span{begin: b, end: e, durNS: e.NS - b.NS, seq: seqOf[e.ID]}
			stage := b.Name
			if b.Cat != "" {
				stage = b.Cat + "/" + b.Name
			}
			ag := a.stages[stage]
			if ag == nil {
				ag = &stageAgg{name: stage, hist: obs.NewHistogram(), first: sp.seq}
				a.stages[stage] = ag
			}
			ag.hist.Observe(float64(sp.durNS) / 1e3)
			ag.total += sp.durNS
			if b.TID > 0 && b.Parent == 0 {
				a.trackBusyNS[b.TID] += sp.durNS
			}
			switch {
			case b.Cat == "hls" && b.Name == "estimate":
				if c, _ := b.Args["cache"].(string); c == "fresh" {
					a.hls = append(a.hls, sp)
				}
			case b.Cat == "dse" && b.Name == "run":
				if s, ok := e.Args["stop"].(string); ok {
					a.stopReason = s
				}
			case b.Cat == "blaze":
				req := asInt(b.Args["req"])
				br := blazeByReq[req]
				if br == nil {
					br = &blazeReq{req: req}
					blazeByReq[req] = br
					blazeOrder = append(blazeOrder, req)
				}
				br.span = sp
			}
		case obs.PhaseInstant:
			if e.Cat == "obs" && e.Name == "span-misnest" {
				a.misnests++
			}
			if e.Cat == "blaze" && (e.Name == "offload" || e.Name == "fallback") {
				req := asInt(e.Args["req"])
				br := blazeByReq[req]
				if br == nil {
					br = &blazeReq{req: req}
					blazeByReq[req] = br
					blazeOrder = append(blazeOrder, req)
				}
				br.children = append(br.children, e)
			}
		case obs.PhaseCounter:
			// Count samples carry the running total; the last one wins.
			v := e.Args["value"]
			switch v.(type) {
			case int64, int:
				a.counters[e.Name] = asInt(v)
			case float64:
				// JSON round-trips integers as float64; integral values
				// that look like running counters stay counters.
				f := v.(float64)
				if f == math.Trunc(f) {
					a.counters[e.Name] = int64(f)
				}
			}
		}
		if e.Cat == "dse" && e.Name == "incumbent" && e.Ph == obs.PhaseInstant {
			a.incumbents++
			a.bestObjective = asFloat(e.Args["objective"])
		}
	}
	for _, req := range blazeOrder {
		a.blaze = append(a.blaze, *blazeByReq[req])
	}
	sort.Slice(a.blaze, func(i, j int) bool { return a.blaze[i].req < a.blaze[j].req })
	return a
}

func (a *analysis) renderOverview(b *strings.Builder) {
	b.WriteString("\n## Overview\n\n")
	if a.kernel != "" {
		fmt.Fprintf(b, "- kernel: **%s**\n", a.kernel)
	}
	fmt.Fprintf(b, "- trace wall time: %s\n", fmtDurNS(a.lastNS-a.firstNS))
	if a.stopReason != "" {
		fmt.Fprintf(b, "- DSE stop reason: `%s`\n", a.stopReason)
	}
	if a.incumbents > 0 {
		fmt.Fprintf(b, "- incumbent updates: %d (best objective %.6g s)\n",
			a.incumbents, a.bestObjective)
	}
	if n := a.counters["dse.evals"]; n > 0 {
		fmt.Fprintf(b, "- evaluations: %d (%d fresh HLS estimations, %d cache hits)\n",
			n, a.counters["hls.estimations"], a.counters["hls.cache_hits"])
	}
	if a.misnests > 0 {
		fmt.Fprintf(b, "- WARNING: %d span-misnest diagnostics (instrumentation bug in the traced build)\n", a.misnests)
	}
}

func (a *analysis) renderWaterfall(b *strings.Builder, opt Options) {
	if len(a.stages) == 0 {
		return
	}
	b.WriteString("\n## Stage waterfall\n\n")
	b.WriteString("Real time per stage; nested stages overlap their parents. Ordered by first appearance.\n\n")
	ord := make([]*stageAgg, 0, len(a.stages))
	for _, ag := range a.stages { //determinism:allow sorted by first-appearance seq below
		ord = append(ord, ag)
	}
	sort.Slice(ord, func(i, j int) bool { return ord[i].first < ord[j].first })
	rows := [][]string{{"stage", "count", "total", "mean", "p50", "p90", "p99"}}
	for _, ag := range ord {
		rows = append(rows, []string{
			ag.name,
			fmt.Sprintf("%d", ag.hist.Count()),
			fmtDurNS(ag.total),
			fmtDurUS(ag.hist.Mean()),
			fmtDurUS(ag.hist.P50()),
			fmtDurUS(ag.hist.P90()),
			fmtDurUS(ag.hist.P99()),
		})
	}
	writeTable(b, rows, opt)
}

func (a *analysis) renderSlowEstimations(b *strings.Builder, opt Options) {
	if len(a.hls) == 0 {
		return
	}
	b.WriteString("\n## Slowest fresh HLS estimations\n\n")
	ranked := append([]span(nil), a.hls...)
	// Rank by real duration; break ties by synthesis minutes so the
	// ordering is meaningful (and stable → deterministic) under an
	// injected test clock where every span costs one tick.
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].durNS != ranked[j].durNS {
			return ranked[i].durNS > ranked[j].durNS
		}
		return asFloat(ranked[i].end.Args["synth_min"]) > asFloat(ranked[j].end.Args["synth_min"])
	})
	if len(ranked) > opt.TopN {
		ranked = ranked[:opt.TopN]
	}
	rows := [][]string{{"point", "real", "synth", "feasible", "bottleneck", "site"}}
	for _, sp := range ranked {
		point, _ := sp.begin.Args["point"].(string)
		feas, _ := sp.end.Args["feasible"].(bool)
		bn, _ := sp.end.Args["bottleneck"].(string)
		site, _ := sp.end.Args["bottleneck_site"].(string)
		if m, _ := sp.end.Args["merlin"].(string); m == "rejected" {
			bn = "merlin-rejected"
		}
		rows = append(rows, []string{
			point,
			fmtDurNS(sp.durNS),
			fmt.Sprintf("%.1fmin", asFloat(sp.end.Args["synth_min"])),
			fmt.Sprintf("%v", feas),
			bn,
			site,
		})
	}
	writeTable(b, rows, opt)
}

func (a *analysis) renderPrunes(b *strings.Builder, opt Options) {
	type row struct{ label, counter, what string }
	prunes := []row{
		{"static lint", "dse.pruned", "proposals rejected by the 5-pass verifier before HLS"},
		{"range collapse", "dse.collapsed", "width-equivalent points folded onto a sibling's report"},
		{"dependence", "dse.depend_pruned", "parallel variants of serializing loops collapsed"},
		{"access/port cap", "dse.access_pruned", "port-starved parallel factors collapsed"},
	}
	var any bool
	for _, p := range prunes {
		if a.counters[p.counter] > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	b.WriteString("\n## Prune attribution\n\n")
	b.WriteString("Evaluations each static analysis saved the search.\n\n")
	rows := [][]string{{"analysis", "saved", "meaning"}}
	for _, p := range prunes {
		rows = append(rows, []string{p.label, fmt.Sprintf("%d", a.counters[p.counter]), p.what})
	}
	rows = append(rows, []string{"HLS cache", fmt.Sprintf("%d", a.counters["hls.cache_hits"]), "re-evaluations served from the report cache"})
	writeTable(b, rows, opt)
}

// renderCompileCache surfaces the content-addressed compile cache:
// hit/miss/poisoning counts and cached-entry bytes. Counter events from
// the trace win; the ccache.* series of a metrics snapshot (headless
// runs that only kept the registry) are the fallback, so the section
// appears either way. Absent entirely when no cache was attached —
// hit runs are also visible indirectly in the waterfall, where the
// kdsl/b2c stage counts drop below the kernel count.
func renderCompileCache(b *strings.Builder, a *analysis, m *obs.MetricsSnapshot, opt Options) {
	get := func(name string) int64 {
		if v := a.counters[name]; v != 0 {
			return v
		}
		if m != nil {
			return m.Counters[name]
		}
		return 0
	}
	hits := get("ccache.hits")
	misses := get("ccache.misses")
	poisoned := get("ccache.poisoned")
	bytes := get("ccache.bytes")
	if hits == 0 && misses == 0 && poisoned == 0 {
		return
	}
	b.WriteString("\n## Compile cache\n\n")
	b.WriteString("Content-addressed cache over the kdsl -> bytecode -> b2c pipeline; a hit skips b2c, lint, and the DSE guard analyses.\n\n")
	rows := [][]string{
		{"series", "value", "meaning"},
		{"ccache.hits", fmt.Sprintf("%d", hits), "compilations served from the cache"},
		{"ccache.misses", fmt.Sprintf("%d", misses), "full pipeline runs that populated an entry"},
		{"ccache.poisoned", fmt.Sprintf("%d", poisoned), "checksum mismatches (entry evicted, fresh recompile)"},
		{"ccache.bytes", fmt.Sprintf("%d", bytes), "rendered-kernel bytes held by stored entries"},
	}
	writeTable(b, rows, opt)
	if total := hits + misses; total > 0 {
		fmt.Fprintf(b, "\nHit rate: %.1f%% over %d compilations.\n", 100*float64(hits)/float64(total), total)
	}
}

func (a *analysis) renderWorkers(b *strings.Builder, opt Options) {
	// Virtual workers run on trace tracks > 0; report each track's span
	// time.
	if len(a.trackBusyNS) == 0 {
		return
	}
	var tids []int
	for tid := range a.trackBusyNS { //determinism:allow sorted below
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	rows := [][]string{{"virtual worker (track)", "span time"}}
	for _, tid := range tids {
		rows = append(rows, []string{fmt.Sprintf("%d", tid-1), fmtDurNS(a.trackBusyNS[tid])})
	}
	b.WriteString("\n## Worker utilization\n\n")
	writeTable(b, rows, opt)
}

func (a *analysis) renderBlaze(b *strings.Builder, opt Options) {
	off, fb := a.counters["blaze.offloads"], a.counters["blaze.fallbacks"]
	if off+fb == 0 && len(a.blaze) == 0 {
		return
	}
	b.WriteString("\n## Blaze offload vs fallback\n\n")
	total := off + fb
	if total > 0 {
		fmt.Fprintf(b, "- requests resolved on the accelerator: %d/%d (%.0f%%)\n",
			off, total, 100*float64(off)/float64(total))
		if bytes := a.counters["blaze.bytes_serialized"]; bytes > 0 {
			fmt.Fprintf(b, "- bytes serialized to the device: %d\n", bytes)
		}
	}
	if len(a.blaze) == 0 {
		return
	}
	b.WriteString("\nPer-request span trees:\n\n")
	for _, br := range a.blaze {
		acc, _ := br.span.begin.Args["acc"].(string)
		verb := br.span.begin.Name
		tasks := asInt(br.span.begin.Args["tasks"])
		outcome := "fallback"
		if off, _ := br.span.end.Args["offloaded"].(bool); off {
			outcome = "offloaded"
		}
		fmt.Fprintf(b, "- req %d: `%s` acc=%s tasks=%d → %s (%s real, sim %s)\n",
			br.req, verb, acc, tasks, outcome,
			fmtDurNS(br.span.durNS), fmtDurNS(asInt(br.span.end.Args["sim_ns"])))
		if cause, _ := br.span.end.Args["fallback"].(string); cause != "" {
			fmt.Fprintf(b, "  - cause: %s\n", cause)
		}
		for _, c := range br.children {
			switch c.Name {
			case "offload":
				fmt.Fprintf(b, "  - offload: %d tasks, %d bytes\n",
					asInt(c.Args["tasks"]), asInt(c.Args["bytes"]))
			case "fallback":
				cause, _ := c.Args["cause"].(string)
				jit, _ := c.Args["jit"].(bool)
				fmt.Fprintf(b, "  - fallback (jit=%v): %s\n", jit, cause)
			}
		}
	}
}

func renderRuntime(b *strings.Builder, m *obs.MetricsSnapshot, opt Options) {
	if m == nil || len(m.Gauges) == 0 {
		return
	}
	var keys []string
	for k := range m.Gauges { //determinism:allow sorted below
		if strings.HasPrefix(k, "go.") {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return
	}
	sort.Strings(keys)
	b.WriteString("\n## Go runtime (final sample)\n\n")
	rows := [][]string{{"gauge", "value"}}
	for _, k := range keys {
		rows = append(rows, []string{k, fmt.Sprintf("%g", m.Gauges[k])})
	}
	writeTable(b, rows, opt)
}

// writeTable renders rows (header first) as a markdown pipe table or
// aligned plain-text columns.
func writeTable(b *strings.Builder, rows [][]string, opt Options) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	pad := func(s string, w int) string { return s + strings.Repeat(" ", w-utf8.RuneCountInString(s)) }
	if opt.Markdown {
		for ri, r := range rows {
			b.WriteString("|")
			for i, c := range r {
				b.WriteString(" " + pad(c, widths[i]) + " |")
			}
			b.WriteString("\n")
			if ri == 0 {
				b.WriteString("|")
				for _, w := range widths {
					b.WriteString(strings.Repeat("-", w+2) + "|")
				}
				b.WriteString("\n")
			}
		}
		return
	}
	for ri, r := range rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteString("\n")
		if ri == 0 {
			total := 0
			for _, w := range widths {
				total += w + 2
			}
			b.WriteString(strings.Repeat("-", total-2) + "\n")
		}
	}
}

// fmtDurNS formats a nanosecond duration at µs/ms/s scale.
func fmtDurNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	}
}

// fmtDurUS formats a microsecond quantity at µs/ms/s scale.
func fmtDurUS(us float64) string { return fmtDurNS(int64(us * 1e3)) }

func asFloat(v any) float64 {
	switch v := v.(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	case int:
		return float64(v)
	}
	return math.NaN()
}

func asInt(v any) int64 {
	switch v := v.(type) {
	case int64:
		return v
	case float64:
		return int64(v)
	case int:
		return int64(v)
	}
	return 0
}
